(* Attack scenario infrastructure: a victim task holding a recognizable
   secret and an attacker task on another functional unit of the same
   system, per the threat model of §4 (general users running unverified
   accelerator code; attackers generating arbitrary addresses). *)

let secret_word = 0x5EC2E7_0BAD_CAFEL (* recognizable 63-bit pattern *)

let victim_kernel =
  {
    Kernel.Ir.name = "victim";
    bufs = [ Kernel.Ir.buf "secret" Kernel.Ir.I64 32 ];
    scratch = [];
    body = [];
  }

(* The attacker's task owns two objects so intra-task, inter-object attacks
   are expressible.  Buffer [a] is the declared working buffer all probes are
   issued through; [b] is the same task's second object. *)
let attacker_kernel body =
  {
    Kernel.Ir.name = "attacker";
    bufs = [ Kernel.Ir.buf "a" Kernel.Ir.I64 8; Kernel.Ir.buf "b" Kernel.Ir.I64 8 ];
    scratch = [];
    body;
  }

type env = {
  sys : Soc.System.t;
  driver : Driver.t;
  victim : Driver.handle;
  attacker : Driver.handle;
  attacker_kernel : Kernel.Ir.t;
}

let word_bytes = 8

let setup ?(attacker_body = []) (protection : Soc.Config.protection) =
  let config = Soc.Config.Hetero { cpu_isa = Cpu.Model.Cheri_rv64; protection } in
  let sys = Soc.System.create ~instances:4 config in
  let driver = Option.get sys.Soc.System.driver in
  let kernel = attacker_kernel attacker_body in
  let victim =
    match Driver.allocate driver victim_kernel with
    | Ok a -> a.Driver.handle
    | Error msg -> failwith ("victim allocation failed: " ^ msg)
  in
  let attacker =
    match Driver.allocate driver kernel with
    | Ok a -> a.Driver.handle
    | Error msg -> failwith ("attacker allocation failed: " ^ msg)
  in
  (* Fill the victim's secret. *)
  let sb = Memops.Layout.find victim.Driver.layout "secret" in
  Memops.Layout.init_buffer sys.Soc.System.mem sb (fun _ ->
      Kernel.Value.VI (Int64.to_int secret_word));
  (* Zero-ish fill of the attacker's buffers. *)
  List.iter
    (fun name ->
      let binding = Memops.Layout.find attacker.Driver.layout name in
      Memops.Layout.init_buffer sys.Soc.System.mem binding (fun idx ->
          Kernel.Value.VI idx))
    [ "a"; "b" ];
  { sys; driver; victim; attacker; attacker_kernel = kernel }

(* Run the attacker's kernel as its accelerator task. *)
let run_attacker ?(params = []) env =
  let backend = Option.get env.sys.Soc.System.backend in
  Accel.Engine.run ~mem:env.sys.Soc.System.mem ~bus:env.sys.Soc.System.bus
    ~directives:Hls.Directives.default
    ~addressing:(Driver.Backend.addressing backend)
    ~naive_tag_writes:(Soc.System.naive_tag_writes env.sys)
    (Accel.Engine.Adj_live (Soc.System.guard env.sys)) Accel.Engine.Interpret
    {
      Accel.Engine.instance = env.attacker.Driver.task_id;
      kernel = env.attacker_kernel;
      layout = env.attacker.Driver.layout;
      params;
      obj_ids = env.attacker.Driver.obj_ids;
    }

let base_of handle name =
  (Memops.Layout.find handle.Driver.layout name).Memops.Layout.base

(* Element index (into attacker buffer [a]) that makes the generated address
   hit [target_addr], given plain physical addressing. *)
let index_for env ~target_addr =
  (target_addr - base_of env.attacker "a") / word_bytes

(* Index that, under Coarse addressing, flips the object-id bits from [a]'s
   id to [to_obj] while landing on [target_addr] — the address-arithmetic
   forging of §5.2.3. *)
let coarse_forge_index env ~to_obj ~target_addr =
  let a_base = base_of env.attacker "a" in
  let a_obj = List.assoc "a" env.attacker.Driver.obj_ids in
  let from_composed = Capchecker.Checker.compose_coarse ~obj:a_obj a_base in
  let to_composed = Capchecker.Checker.compose_coarse ~obj:to_obj target_addr in
  (to_composed - from_composed) / word_bytes

let read_attacker_word env idx =
  let binding = Memops.Layout.find env.attacker.Driver.layout "a" in
  Tagmem.Mem.read_u64 env.sys.Soc.System.mem
    ~addr:(Memops.Layout.elem_addr binding idx)

let victim_secret_intact env =
  let binding = Memops.Layout.find env.victim.Driver.layout "secret" in
  let rec all idx =
    idx >= binding.Memops.Layout.decl.Kernel.Ir.len
    || (Int64.equal
          (Tagmem.Mem.read_u64 env.sys.Soc.System.mem
             ~addr:(Memops.Layout.elem_addr binding idx))
          secret_word
       && all (idx + 1))
  in
  all 0
