type t = {
  regions_per_task : int;
  table : (int, (int * int) list ref) Hashtbl.t;  (* source -> (base, top) list *)
}

let create ?(regions_per_task = 8) () =
  { regions_per_task; table = Hashtbl.create 16 }

let grant t ~source ~base ~size =
  let regions =
    match Hashtbl.find_opt t.table source with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.table source r;
        r
  in
  if List.length !regions >= t.regions_per_task then
    Error "sNPU bounds registers exhausted for task"
  else begin
    regions := (base, base + size) :: !regions;
    Ok ()
  end

let revoke_task t ~source = Hashtbl.remove t.table source

(* Bounds-register pairs and comparators embedded in the NPU datapath. *)
let area_luts t = 300 + (8 * t.regions_per_task * 70)

let as_guard t =
  let check (req : Iface.req) =
    let allowed =
      match Hashtbl.find_opt t.table req.Iface.source with
      | None -> false
      | Some regions ->
          List.exists
            (fun (base, top) -> req.addr >= base && req.size <= top - req.addr)
            !regions
    in
    (* Task granularity: any region of the task admits the access, regardless
       of which object it was meant for — and read/write are not
       distinguished, matching sNPU's region model. *)
    if allowed then Iface.Granted { phys = req.addr; latency = 1 }
    else
      Iface.Denied
        { code = "snpu"; detail = "outside task regions: " ^ Iface.req_to_string req }
  in
  {
    Iface.info = { name = "snpu"; granularity = Iface.G_task; area_luts = area_luts t };
    check;
    entries_in_use =
      (fun () -> Hashtbl.fold (fun _ r acc -> acc + List.length !r) t.table 0);
    (* Pure bounds-register comparators embedded in the datapath. *)
    const_latency = Some 1;
  }
