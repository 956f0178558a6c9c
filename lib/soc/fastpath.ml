(* Proof-driven fast paths and cross-sweep memoization: process-global policy
   and caches for the simulator's replay speedups.

   Everything here is a pure simulator optimization: each cache keys on the
   complete set of inputs its value is a deterministic function of, so a hit
   reproduces exactly what recomputation would have produced (the
   differential test suite and the [Differential] mode pin this).  Every
   cache is a {!Ccsim.Memo}, so pool worker domains share it. *)

type mode = Fast | Interpretive | Differential

let mode_cell = Atomic.make Fast

let set_mode m = Atomic.set mode_cell m
let current_mode () = Atomic.get mode_cell
let enabled () = Atomic.get mode_cell <> Interpretive

let mode_to_string = function
  | Fast -> "on"
  | Interpretive -> "off"
  | Differential -> "diff"

let mode_of_string = function
  | "on" | "fast" -> Some Fast
  | "off" | "interpretive" -> Some Interpretive
  | "diff" | "differential" -> Some Differential
  | _ -> None

(* Identity of a benchmark as the access-sequence layers see it: the kernel
   is named uniquely by the registry, and params/directives are the only
   other inputs the interpretation's access sequence (and its CPU cycle
   count) depends on.  Ablations that rewrite directives under the same name
   get distinct keys. *)
type bench_key = {
  bk_name : string;
  bk_params : (string * Kernel.Value.t) list;
  bk_directives : Hls.Directives.t;
}

let bench_key (b : Machsuite.Bench_def.t) =
  { bk_name = b.Machsuite.Bench_def.name; bk_params = b.params;
    bk_directives = b.directives }

(* ---- static-proof verdicts ---- *)

let proven_memo : (bench_key, bool) Ccsim.Memo.t = Ccsim.Memo.create 32

let proven (bench : Machsuite.Bench_def.t) =
  Ccsim.Memo.find_or_add proven_memo (bench_key bench) (fun () ->
      Analysis.proven
        (Analysis.analyze
           ~params:(Analysis.param_intervals bench.Machsuite.Bench_def.params)
           bench.Machsuite.Bench_def.kernel))

(* ---- recorded access scripts ---- *)

let script_memo : (bench_key, Accel.Script.t * bool) Ccsim.Memo.t =
  Ccsim.Memo.create 32

let find_script key = Ccsim.Memo.find script_memo key

let store_script key script ~correct =
  ignore (Ccsim.Memo.add script_memo key (script, correct))

(* ---- CPU model results ---- *)

(* One Cpu.Model.run covers every task count (the CPU path multiplies the
   single-task cycle count), so the key is just (isa, bench). *)
let cpu_memo : (Cpu.Model.isa * bench_key, int * bool) Ccsim.Memo.t =
  Ccsim.Memo.create 32

let cpu_result ~isa key compute =
  Ccsim.Memo.find_or_add cpu_memo (isa, key) compute

(* ---- cache lifecycle ---- *)

(* Caches owned by other modules (the whole-run memo lives in Run, next to
   its result type) register a reset hook at module-init time. *)
let clear_hooks : (unit -> unit) list Atomic.t = Atomic.make []

let rec register_clear f =
  let hooks = Atomic.get clear_hooks in
  if not (Atomic.compare_and_set clear_hooks hooks (f :: hooks)) then
    register_clear f

let clear () =
  Ccsim.Memo.clear proven_memo;
  Ccsim.Memo.clear script_memo;
  Ccsim.Memo.clear cpu_memo;
  List.iter (fun f -> f ()) (Atomic.get clear_hooks)

let stats () =
  [
    ("proven_verdicts", Ccsim.Memo.length proven_memo);
    ("scripts", Ccsim.Memo.length script_memo);
    ("cpu_results", Ccsim.Memo.length cpu_memo);
  ]
