type config = {
  size_bytes : int;
  line_bytes : int;
  hit_cycles : int;
  miss_cycles : int;
}

let default_config =
  { size_bytes = 16 * 1024; line_bytes = 64; hit_cycles = 1; miss_cycles = 25 }

type t = {
  cfg : config;
  tags : int array;  (* -1 = invalid *)
  line_shift : int;  (* log2 line_bytes *)
  obs : Obs.Trace.t;
  core : int;
  mutable hits : int;
  mutable misses : int;
}

let power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(obs = Obs.Trace.null) ?(core = 0) cfg =
  if not (power_of_two cfg.size_bytes && power_of_two cfg.line_bytes
          && cfg.line_bytes <= cfg.size_bytes)
  then
    invalid_arg
      (Printf.sprintf
         "Cpu.Cache.create: size_bytes %d and line_bytes %d must be powers of two, \
          the line no larger than the cache"
         cfg.size_bytes cfg.line_bytes);
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  { cfg; tags = Array.make (cfg.size_bytes / cfg.line_bytes) (-1);
    line_shift = log2 cfg.line_bytes; obs; core; hits = 0; misses = 0 }

(* Addresses are non-negative, so a shift and a mask stand for the divide
   and the modulo by the line size and the line count. *)
let access t ~addr =
  let line = addr lsr t.line_shift in
  let set = line land (Array.length t.tags - 1) in
  if Array.unsafe_get t.tags set = line then begin
    t.hits <- t.hits + 1;
    if Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Cache_hit { core = t.core; addr });
    t.cfg.hit_cycles
  end
  else begin
    t.misses <- t.misses + 1;
    Array.unsafe_set t.tags set line;
    if Obs.Trace.enabled t.obs then
      Obs.Trace.emit t.obs (Obs.Event.Cache_miss { core = t.core; addr });
    t.cfg.miss_cycles
  end

let touch_range t ~addr ~size =
  if size <= 0 then 0
  else
    let first = addr lsr t.line_shift and last = (addr + size - 1) lsr t.line_shift in
    let cycles = ref 0 in
    for line = first to last do
      cycles := !cycles + access t ~addr:(line lsl t.line_shift)
    done;
    !cycles

let hits t = t.hits
let misses t = t.misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.hits <- 0;
  t.misses <- 0
