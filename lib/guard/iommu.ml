let page_size = 4096

type perm = { mutable read : bool; mutable write : bool }

type t = {
  table : (int * int, perm) Hashtbl.t;  (* (source, page) -> perm *)
  tlb : (int * int) option array;       (* direct-mapped IOTLB of (source, page) *)
  mutable tlb_hits : int;
  mutable tlb_misses : int;
}

let create ?(tlb_entries = 32) () =
  {
    table = Hashtbl.create 256;
    tlb = Array.make tlb_entries None;
    tlb_hits = 0;
    tlb_misses = 0;
  }

let page_of addr = addr / page_size

let map_range t ~source ~base ~size ~read ~write =
  if size > 0 then
    for page = page_of base to page_of (base + size - 1) do
      match Hashtbl.find_opt t.table (source, page) with
      | Some p ->
          p.read <- p.read || read;
          p.write <- p.write || write
      | None -> Hashtbl.add t.table (source, page) { read; write }
    done

let unmap_source t ~source =
  let doomed =
    Hashtbl.fold
      (fun ((s, _) as key) _ acc -> if s = source then key :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed;
  Array.iteri
    (fun idx slot ->
      match slot with
      | Some (s, _) when s = source -> t.tlb.(idx) <- None
      | Some _ | None -> ())
    t.tlb

let entries_for_range ~base ~size =
  if size <= 0 then 0 else page_of (base + size - 1) - page_of base + 1

let mapped_pages t = Hashtbl.length t.table

(* Page-walk machinery, IOTLB CAM and the table walker make IOMMUs markedly
   larger than an IOPMP; calibrated to a small embedded IOMMU. *)
let area_luts = 48_000

let tlb_lookup t key =
  let idx = Hashtbl.hash key mod Array.length t.tlb in
  match t.tlb.(idx) with
  | Some k when k = key ->
      t.tlb_hits <- t.tlb_hits + 1;
      true
  | Some _ | None ->
      t.tlb_misses <- t.tlb_misses + 1;
      t.tlb.(idx) <- Some key;
      false

let as_guard t =
  let check (req : Iface.req) =
    if req.size <= 0 then Iface.Granted { phys = req.addr; latency = 2 }
    else if req.addr >= 0 && req.size - 1 > max_int - req.addr then
      (* The access runs past the end of the address space, where no page
         can be mapped; its last page would otherwise wrap negative and
         admit it with no page checked. *)
      Iface.Denied
        { code = "iommu"; detail = "page fault: " ^ Iface.req_to_string req }
    else begin
      let first = page_of req.addr and last = page_of (req.addr + req.size - 1) in
      let rec pages_ok page =
        if page > last then true
        else
          match Hashtbl.find_opt t.table (req.source, page) with
          | Some p ->
              let ok =
                match req.kind with Iface.Read -> p.read | Iface.Write -> p.write
              in
              ok && pages_ok (page + 1)
          | None -> false
      in
      let hit = tlb_lookup t (req.source, first) in
      let latency = if hit then 2 else 20 in
      if pages_ok first then Iface.Granted { phys = req.addr; latency }
      else
        Iface.Denied
          { code = "iommu"; detail = "page fault: " ^ Iface.req_to_string req }
    end
  in
  {
    Iface.info = { name = "iommu"; granularity = Iface.G_page; area_luts };
    check;
    entries_in_use = (fun () -> mapped_pages t);
    (* The TLB makes grant latency history-dependent (2 on a hit, 20 on a
       walk) and every check mutates TLB state. *)
    const_latency = None;
  }
