type t = { mutable clock : int; ring : Packed.t option }

let null = { clock = 0; ring = None }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be positive";
  { clock = 0; ring = Some (Packed.create ~capacity) }

let enabled t = match t.ring with None -> false | Some _ -> true

let now t = t.clock

let set_now t c = match t.ring with None -> () | Some _ -> if c > t.clock then t.clock <- c

let advance t n = match t.ring with None -> () | Some _ -> if n > 0 then t.clock <- t.clock + n

let emit_at t ~cycle data =
  match t.ring with
  | None -> ()
  | Some r -> Packed.push r ~cycle data

let emit t data = emit_at t ~cycle:t.clock data

let iter f t = match t.ring with None -> () | Some r -> Packed.iter f r

let events t =
  let acc = ref [] in
  iter (fun ev -> acc := ev :: !acc) t;
  List.rev !acc

let length t = match t.ring with None -> 0 | Some r -> Packed.length r
let dropped t = match t.ring with None -> 0 | Some r -> Packed.dropped r
let capacity t = match t.ring with None -> 0 | Some r -> Packed.capacity r

let clear t =
  (match t.ring with None -> () | Some r -> Packed.clear r);
  t.clock <- 0

let merge_into ~into sources =
  match into.ring with
  | None -> ()
  | Some r ->
      List.iter
        (fun src ->
          if src == into then invalid_arg "Obs.Trace.merge_into: source = into";
          iter (fun (ev : Event.t) -> Packed.push r ~cycle:ev.cycle ev.data) src;
          if src.clock > into.clock then into.clock <- src.clock)
        sources
