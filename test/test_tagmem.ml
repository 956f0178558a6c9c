(* Tagged memory and the driver heap: tag-clearing semantics (the
   unforgeability mechanism), scalar accessors, and allocator invariants. *)

open Tagmem

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let some_cap base len =
  match Cheri.Cap.set_bounds Cheri.Cap.root ~base ~length:len with
  | Ok c -> c
  | Error e -> Alcotest.failf "cap: %s" (Cheri.Cap.error_to_string e)

let test_rw_scalars () =
  let m = Mem.create ~size:4096 in
  Mem.write_u8 m ~addr:0 200;
  checki "u8" 200 (Mem.read_u8 m ~addr:0);
  Mem.write_u32 m ~addr:4 0xDEADBEEF;
  checki "u32" 0xDEADBEEF (Mem.read_u32 m ~addr:4);
  Mem.write_u64 m ~addr:8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Mem.read_u64 m ~addr:8);
  Mem.write_f32 m ~addr:16 1.5;
  Alcotest.(check (float 0.0)) "f32" 1.5 (Mem.read_f32 m ~addr:16);
  Mem.write_f64 m ~addr:24 (-3.25);
  Alcotest.(check (float 0.0)) "f64" (-3.25) (Mem.read_f64 m ~addr:24)

let test_little_endian_bytes () =
  let m = Mem.create ~size:64 in
  Mem.write_u32 m ~addr:0 0x04030201;
  let b = Mem.read_bytes m ~addr:0 ~size:4 in
  checki "lsb first" 1 (Char.code (Bytes.get b 0));
  checki "msb last" 4 (Char.code (Bytes.get b 3))

let test_out_of_range () =
  let m = Mem.create ~size:64 in
  (try
     ignore (Mem.read_u64 m ~addr:60);
     Alcotest.fail "straddling end allowed"
   with Mem.Out_of_range { addr; size } ->
     checki "addr" 60 addr;
     checki "size" 8 size);
  try
    Mem.write_u8 m ~addr:(-1) 0;
    Alcotest.fail "negative address allowed"
  with Mem.Out_of_range _ -> ()

let test_cap_store_load () =
  let m = Mem.create ~size:4096 in
  let cap = some_cap 0x100 64 in
  Mem.store_cap m ~addr:32 cap;
  checkb "tag set" true (Mem.tag_at m ~addr:32);
  checkb "tag granule covers" true (Mem.tag_at m ~addr:47);
  checkb "neighbour granule clear" false (Mem.tag_at m ~addr:48);
  let loaded = Mem.load_cap m ~addr:32 in
  checkb "roundtrip" true (Cheri.Cap.equal loaded cap);
  checki "one tag" 1 (Mem.count_tags m)

let test_cap_misaligned_rejected () =
  let m = Mem.create ~size:4096 in
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Mem: capability access must be 16-byte aligned") (fun () ->
      Mem.store_cap m ~addr:8 (some_cap 0 16))

let test_raw_write_clears_tag () =
  let m = Mem.create ~size:4096 in
  Mem.store_cap m ~addr:32 (some_cap 0x100 64);
  (* A one-byte write anywhere in the granule must kill the tag. *)
  Mem.write_u8 m ~addr:45 0xFF;
  checkb "tag cleared" false (Mem.tag_at m ~addr:32);
  let loaded = Mem.load_cap m ~addr:32 in
  checkb "loaded untagged" false loaded.Cheri.Cap.tag

let test_fill_clears_tags () =
  let m = Mem.create ~size:4096 in
  Mem.store_cap m ~addr:0 (some_cap 0 16);
  Mem.store_cap m ~addr:64 (some_cap 0 16);
  Mem.fill m ~addr:0 ~size:80 '\000';
  checki "all tags gone" 0 (Mem.count_tags m)

let test_unsafe_write_preserves_tag () =
  (* The naive-integration hazard: data changes, tag survives. *)
  let m = Mem.create ~size:4096 in
  let cap = some_cap 0x100 64 in
  Mem.store_cap m ~addr:32 cap;
  Mem.unsafe_write_preserving_tags m ~addr:32 (Bytes.make 8 '\xff');
  checkb "tag survived" true (Mem.tag_at m ~addr:32);
  let forged = Mem.load_cap m ~addr:32 in
  checkb "forged is tagged" true forged.Cheri.Cap.tag;
  checkb "forged differs" false (Cheri.Cap.equal forged cap)

let test_granule_rounding () =
  let m = Mem.create ~size:100 in
  checki "rounded up to granule" 112 (Mem.size m)

(* Tags are demand-paged: one 4 KiB tag page per 64 KiB data page, present
   only once a tag has been set in it. *)

let test_untouched_page_untagged () =
  let m = Mem.create ~size:(4 * 65536) in
  Mem.store_cap m ~addr:0 (some_cap 0 16);
  checkb "other page reads untagged" false (Mem.tag_at m ~addr:(2 * 65536));
  checkb "loaded untagged" false
    (Mem.load_cap m ~addr:(3 * 65536 + 32)).Cheri.Cap.tag;
  Mem.write_u64 m ~addr:(2 * 65536) 7L;
  checkb "raw write leaves it untagged" false (Mem.tag_at m ~addr:(2 * 65536))

let test_fresh_page_store_then_raw_write () =
  let m = Mem.create ~size:(4 * 65536) in
  let addr = (3 * 65536) + 4096 in
  Mem.store_cap m ~addr (some_cap 0x100 64);
  checkb "tagged" true (Mem.tag_at m ~addr);
  Mem.write_u8 m ~addr:(addr + 3) 0;
  checkb "raw write clears it" false (Mem.tag_at m ~addr);
  checki "no tags left" 0 (Mem.count_tags m)

let test_count_tags_across_pages () =
  let m = Mem.create ~size:(4 * 65536) in
  List.iter
    (fun addr -> Mem.store_cap m ~addr (some_cap 0 16))
    [ 0; 16; 65536; (3 * 65536) + 65520 ];
  Mem.store_cap m ~addr:(2 * 65536) (Cheri.Cap.clear_tag (some_cap 0 16));
  checki "four tags over three pages" 4 (Mem.count_tags m)

let test_fresh_memory_is_small () =
  let before = Gc.allocated_bytes () in
  let m = Mem.create ~size:(16 * 1024 * 1024) in
  let allocated = Gc.allocated_bytes () -. before in
  checki "size" (16 * 1024 * 1024) (Mem.size m);
  if allocated >= 65536.0 then
    Alcotest.failf "a fresh 16 MiB memory allocated %.0f bytes" allocated

(* ---------------- Alloc ---------------- *)

let test_alloc_basic () =
  let a = Alloc.create ~base:0x1000 ~size:4096 in
  let p1 = Alloc.malloc a 100 in
  let p2 = Alloc.malloc a 200 in
  checkb "distinct" true (p1 <> p2);
  checki "sized" 112 (Alloc.size_of a p1);
  checki "live count" 2 (List.length (Alloc.live_blocks a));
  Alloc.free a p1;
  Alloc.free a p2;
  checki "all free" 4096 (Alloc.bytes_free a)

let test_alloc_alignment () =
  let a = Alloc.create ~base:0x1008 ~size:65536 in
  let p = Alloc.malloc a ~align:4096 100 in
  checki "page aligned" 0 (p mod 4096)

let test_alloc_zero_size_distinct () =
  let a = Alloc.create ~base:0 ~size:4096 in
  let p1 = Alloc.malloc a 0 in
  let p2 = Alloc.malloc a 0 in
  checkb "zero-size blocks distinct" true (p1 <> p2)

let test_alloc_oom () =
  let a = Alloc.create ~base:0 ~size:256 in
  try
    ignore (Alloc.malloc a 512);
    Alcotest.fail "expected Out_of_memory"
  with Alloc.Out_of_memory n -> checki "request size" 512 n

let test_double_free_rejected () =
  let a = Alloc.create ~base:0 ~size:4096 in
  let p = Alloc.malloc a 64 in
  Alloc.free a p;
  try
    Alloc.free a p;
    Alcotest.fail "double free allowed"
  with Invalid_argument _ -> ()

let test_free_offset_pointer_rejected () =
  (* CWE 761: free of a pointer not at the start of its buffer. *)
  let a = Alloc.create ~base:0 ~size:4096 in
  let p = Alloc.malloc a 64 in
  try
    Alloc.free a (p + 16);
    Alcotest.fail "offset free allowed"
  with Invalid_argument _ -> ()

let test_coalescing_reuses_space () =
  let a = Alloc.create ~base:0 ~size:1024 in
  let ps = List.init 4 (fun _ -> Alloc.malloc a 256) in
  (try
     ignore (Alloc.malloc a 16);
     Alcotest.fail "heap should be full"
   with Alloc.Out_of_memory _ -> ());
  List.iter (Alloc.free a) ps;
  (* After coalescing a single 1024-byte block must be available again. *)
  let big = Alloc.malloc a 1024 in
  checki "full block back" 0 big

let prop_allocations_disjoint =
  QCheck.Test.make ~count:200 ~name:"live allocations never overlap"
    QCheck.(small_list (int_bound 300))
    (fun sizes ->
      let a = Alloc.create ~base:0 ~size:(1 lsl 20) in
      List.iter (fun s -> ignore (Alloc.malloc a s)) sizes;
      let blocks = Alloc.live_blocks a in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint blocks)

let prop_free_restores_bytes =
  QCheck.Test.make ~count:200 ~name:"free returns every byte"
    QCheck.(small_list (int_range 1 300))
    (fun sizes ->
      let total = 1 lsl 20 in
      let a = Alloc.create ~base:0 ~size:total in
      let ps = List.map (fun s -> Alloc.malloc a s) sizes in
      List.iter (Alloc.free a) ps;
      Alloc.bytes_free a = total)

(* The allocator against an oracle: the first-fit allocator as it was when
   [free] re-sorted and re-coalesced the whole free list on every call.
   [Alloc.free] now inserts and merges in one pass; over random malloc
   (alignments 8-4096, small enough a heap that some requests run out) and
   free sequences, both must hand out the same addresses, fail the same
   requests and agree on [bytes_free] and [live_blocks] after every step. *)
module Oracle_alloc = struct
  type t = {
    mutable free_list : (int * int) list;
    live : (int, int) Hashtbl.t;
  }

  let create ~base ~size =
    { free_list = [ (base, size) ]; live = Hashtbl.create 64 }

  let align_up v a = (v + a - 1) / a * a

  let malloc t ~align size =
    let size = align_up (max size 1) align in
    let rec fit acc = function
      | [] -> None
      | (addr, blk_size) :: rest ->
          let start = align_up addr align in
          let waste = start - addr in
          if blk_size >= waste + size then begin
            let tail_addr = start + size in
            let tail_size = blk_size - waste - size in
            let replacement =
              (if waste > 0 then [ (addr, waste) ] else [])
              @ if tail_size > 0 then [ (tail_addr, tail_size) ] else []
            in
            t.free_list <- List.rev_append acc (replacement @ rest);
            Hashtbl.replace t.live start size;
            Some start
          end
          else fit ((addr, blk_size) :: acc) rest
    in
    fit [] t.free_list

  let coalesce list =
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) list in
    let rec go = function
      | (a, sa) :: (b, sb) :: rest when a + sa = b -> go ((a, sa + sb) :: rest)
      | x :: rest -> x :: go rest
      | [] -> []
    in
    go sorted

  let free t addr =
    let size = Hashtbl.find t.live addr in
    Hashtbl.remove t.live addr;
    t.free_list <- coalesce ((addr, size) :: t.free_list)

  let bytes_free t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list

  let live_blocks t =
    Hashtbl.fold (fun a s acc -> (a, s) :: acc) t.live []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

let prop_alloc_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"malloc/free match the sort-and-coalesce oracle"
    QCheck.(
      list_of_size Gen.(int_range 1 120)
        (triple (int_bound 3) (int_range 3 12) (int_bound 3000)))
    (fun ops ->
      let base = 4096 and size = 1 lsl 15 in
      let a = Alloc.create ~base ~size in
      let o = Oracle_alloc.create ~base ~size in
      let live = ref [] in
      List.for_all
        (fun (op, log_align, n) ->
          let same_state () =
            Alloc.bytes_free a = Oracle_alloc.bytes_free o
            && Alloc.live_blocks a = Oracle_alloc.live_blocks o
          in
          match (op, !live) with
          | 0, (_ :: _ as l) ->
              (* Free the [n]-th live block (mod their count). *)
              let addr = List.nth l (n mod List.length l) in
              live := List.filter (( <> ) addr) l;
              Alloc.free a addr;
              Oracle_alloc.free o addr;
              same_state ()
          | _ ->
              let align = 1 lsl log_align in
              let got =
                match Alloc.malloc a ~align n with
                | addr -> Some addr
                | exception Alloc.Out_of_memory _ -> None
              in
              Option.iter (fun addr -> live := addr :: !live) got;
              got = Oracle_alloc.malloc o ~align n && same_state ())
        ops)

(* Demand-paged data against a flat reference model.  Random raw writes,
   fills, capability stores and naive writes — with addresses biased onto the
   64 KiB page boundaries so scalars, byte runs and fills straddle them —
   must leave every read, every byte and every tag exactly as one flat
   [Bytes] pair would. *)

let page = 65536
let model_size = (2 * page) + 4096  (* a partial last page *)

type op =
  | W8 of int * int
  | W32 of int * int
  | W64 of int * int64
  | Wbytes of int * string
  | Fill of int * int * char
  | Store_cap of int * int * bool  (* address, bounds length, tagged *)
  | Naive of int * string
  | R8 of int
  | R32 of int
  | R64 of int
  | Rbytes of int * int
  | Load_cap of int

let gen_addr len =
  QCheck.Gen.(
    let near boundary = map (fun d -> boundary + d - (len / 2)) (int_range (-24) 24) in
    let* a = oneof [ int_bound (model_size - len); near page; near (2 * page) ] in
    return (max 0 (min a (model_size - len))))

let gen_op =
  QCheck.Gen.(
    let str = string_size ~gen:char (int_range 0 40) in
    let cap_addr = map (fun a -> a / Mem.granule * Mem.granule) (gen_addr 16) in
    frequency
      [ (2, map2 (fun a v -> W8 (a, v)) (gen_addr 1) (int_bound 255));
        (2, map2 (fun a v -> W32 (a, v)) (gen_addr 4) (int_bound 0x3fffffff));
        (2, map2 (fun a v -> W64 (a, Int64.of_int v)) (gen_addr 8) int);
        (2, let* s = str in map (fun a -> Wbytes (a, s)) (gen_addr (String.length s)));
        (2,
          let* n = oneof [ int_bound 64; int_range 60000 70000 ] in
          let* c = oneofl [ '\000'; '\000'; '\xa5' ] in
          map (fun a -> Fill (a, n, c)) (gen_addr n));
        (2, map3 (fun a l t -> Store_cap (a, l, t)) cap_addr (int_range 1 4096) bool);
        (1, let* s = str in map (fun a -> Naive (a, s)) (gen_addr (String.length s)));
        (2, map (fun a -> R8 a) (gen_addr 1));
        (2, map (fun a -> R32 a) (gen_addr 4));
        (2, map (fun a -> R64 a) (gen_addr 8));
        (2, let* n = int_range 0 100 in map (fun a -> Rbytes (a, n)) (gen_addr n));
        (2, map (fun a -> Load_cap a) cap_addr) ])

(* Apply [op] to the memory and to the model; [false] on a read mismatch. *)
let step mem data tags op =
  let clear addr sz =
    if sz > 0 then
      for g = addr / Mem.granule to (addr + sz - 1) / Mem.granule do
        Bytes.set tags g '\000'
      done
  in
  let model_cap addr =
    Cheri.Compress.decode
      ~tag:(Bytes.get tags (addr / Mem.granule) <> '\000')
      { Cheri.Compress.lo = Bytes.get_int64_le data addr;
        hi = Bytes.get_int64_le data (addr + 8) }
  in
  match op with
  | W8 (a, v) ->
      Mem.write_u8 mem ~addr:a v;
      Bytes.set data a (Char.chr v);
      clear a 1;
      true
  | W32 (a, v) ->
      Mem.write_u32 mem ~addr:a v;
      Bytes.set_int32_le data a (Int32.of_int v);
      clear a 4;
      true
  | W64 (a, v) ->
      Mem.write_u64 mem ~addr:a v;
      Bytes.set_int64_le data a v;
      clear a 8;
      true
  | Wbytes (a, s) ->
      Mem.write_bytes mem ~addr:a (Bytes.of_string s);
      Bytes.blit_string s 0 data a (String.length s);
      clear a (String.length s);
      true
  | Fill (a, n, c) ->
      Mem.fill mem ~addr:a ~size:n c;
      Bytes.fill data a n c;
      clear a n;
      true
  | Store_cap (a, len, tagged) ->
      let cap = some_cap 0x1000 len in
      let cap = if tagged then cap else Cheri.Cap.clear_tag cap in
      Mem.store_cap mem ~addr:a cap;
      let w = Cheri.Compress.encode cap in
      Bytes.set_int64_le data a w.Cheri.Compress.lo;
      Bytes.set_int64_le data (a + 8) w.Cheri.Compress.hi;
      Bytes.set tags (a / Mem.granule) (if tagged then '\001' else '\000');
      true
  | Naive (a, s) ->
      Mem.unsafe_write_preserving_tags mem ~addr:a (Bytes.of_string s);
      Bytes.blit_string s 0 data a (String.length s);
      true
  | R8 a -> Mem.read_u8 mem ~addr:a = Char.code (Bytes.get data a)
  | R32 a ->
      Mem.read_u32 mem ~addr:a
      = Int32.to_int (Bytes.get_int32_le data a) land 0xffffffff
  | R64 a -> Mem.read_u64 mem ~addr:a = Bytes.get_int64_le data a
  | Rbytes (a, n) -> Bytes.equal (Mem.read_bytes mem ~addr:a ~size:n) (Bytes.sub data a n)
  | Load_cap a -> Cheri.Cap.equal (Mem.load_cap mem ~addr:a) (model_cap a)

let prop_paged_matches_flat =
  QCheck.Test.make ~count:200 ~name:"paged memory matches a flat model"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let mem = Mem.create ~size:model_size in
      let data = Bytes.make model_size '\000' in
      let tags = Bytes.make (model_size / Mem.granule) '\000' in
      List.for_all (step mem data tags) ops
      && Bytes.equal (Mem.read_bytes mem ~addr:0 ~size:model_size) data
      && List.for_all
           (fun g ->
             Mem.tag_at mem ~addr:(g * Mem.granule) = (Bytes.get tags g <> '\000'))
           (List.init (Bytes.length tags) Fun.id))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_allocations_disjoint; prop_free_restores_bytes;
      prop_alloc_matches_oracle; prop_paged_matches_flat ]

let suite =
  [
    ("scalar read/write", `Quick, test_rw_scalars);
    ("little endian", `Quick, test_little_endian_bytes);
    ("out of range", `Quick, test_out_of_range);
    ("capability store/load", `Quick, test_cap_store_load);
    ("capability alignment", `Quick, test_cap_misaligned_rejected);
    ("raw write clears tag", `Quick, test_raw_write_clears_tag);
    ("fill clears tags", `Quick, test_fill_clears_tags);
    ("naive write preserves tag", `Quick, test_unsafe_write_preserves_tag);
    ("granule rounding", `Quick, test_granule_rounding);
    ("untouched page untagged", `Quick, test_untouched_page_untagged);
    ("fresh page store then raw write", `Quick, test_fresh_page_store_then_raw_write);
    ("count tags across pages", `Quick, test_count_tags_across_pages);
    ("fresh memory is small", `Quick, test_fresh_memory_is_small);
    ("alloc basics", `Quick, test_alloc_basic);
    ("alloc alignment", `Quick, test_alloc_alignment);
    ("alloc zero size", `Quick, test_alloc_zero_size_distinct);
    ("alloc OOM", `Quick, test_alloc_oom);
    ("double free rejected", `Quick, test_double_free_rejected);
    ("offset free rejected", `Quick, test_free_offset_pointer_rejected);
    ("coalescing", `Quick, test_coalescing_reuses_space);
  ]
  @ qsuite
