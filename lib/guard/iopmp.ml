type rule = {
  source : int;
  base : int;
  top : int;
  can_read : bool;
  can_write : bool;
}

type t = { max_regions : int; mutable rules : rule list }

let create ?(regions = 16) () = { max_regions = regions; rules = [] }
let max_regions t = t.max_regions

let add_rule t rule =
  if List.length t.rules >= t.max_regions then
    Error
      (Printf.sprintf "IOPMP region file full (%d regions)" t.max_regions)
  else begin
    t.rules <- rule :: t.rules;
    Ok ()
  end

let remove_rules_for t ~source =
  t.rules <- List.filter (fun r -> r.source <> source) t.rules

(* Per-region LUT cost of the parallel associative comparators, plus decode
   logic; calibrated so a 16-region IOPMP sits in the few-thousand-LUT range
   reported for open-source implementations (Protego). *)
let area_luts t = 400 + (260 * t.max_regions)

let matches (req : Iface.req) r =
  req.Iface.source = r.source
  && req.addr >= r.base
  && req.size <= r.top - req.addr
  &&
  match req.kind with Iface.Read -> r.can_read | Iface.Write -> r.can_write

let as_guard t =
  let check req =
    if List.exists (matches req) t.rules then
      Iface.Granted { phys = req.Iface.addr; latency = 1 }
    else
      Iface.Denied
        { code = "iopmp"; detail = "no matching region: " ^ Iface.req_to_string req }
  in
  {
    Iface.info =
      { name = "iopmp"; granularity = Iface.G_task; area_luts = area_luts t };
    check;
    entries_in_use = (fun () -> List.length t.rules);
    (* Pure associative comparators: a grant reads the region file only. *)
    const_latency = Some 1;
  }
