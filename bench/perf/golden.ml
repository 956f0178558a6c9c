(* Digests of every simulated result, pinned per (workload, size, seed) on
   the default leg.  A speed-only change must reproduce them bit for bit; a
   change developed against seed 1 can be checked on seed 2.  interconnect
   and verify take no random input, so their digest is the same at every
   seed. *)

let digests : (string * Workloads.size * int * string) list =
  [
    ("paper", Full, 1, "4b63eceb24c8e418e2530749975b5b3b");
    ("paper", Full, 2, "f2784535984998e750ad6e90dc380696");
    ("interconnect", Full, 1, "f5f6a466aa48bfb4c498f402ce47eb64");
    ("interconnect", Full, 2, "f5f6a466aa48bfb4c498f402ce47eb64");
    ("serve", Full, 1, "2536090e3f391ada2c6e77b823779c28");
    ("serve", Full, 2, "fea4fd43b245d622a92b36f00650e4cb");
    ("verify", Full, 1, "a79aa8b6fff6556392f316d4396ef506");
    ("verify", Full, 2, "a79aa8b6fff6556392f316d4396ef506");
    ("observed_faults", Full, 1, "267f75347f0ef6c9ab32d5f81499b2d5");
    ("observed_faults", Full, 2, "29166c66e51128b50eb048f63496b417");
    ("paper", Smoke, 1, "cb74671b051a45d63a53112328f61491");
    ("interconnect", Smoke, 1, "f98f6139d64050fdf6790e0ca45302a2");
    ("serve", Smoke, 1, "408138e782dd147f0c243eceb4285b56");
    ("verify", Smoke, 1, "b35b64b401a850abfa6eee9ea4c1561e");
    ("observed_faults", Smoke, 1, "8b483f709bfe50cf5bd8386ea633f1d9");
  ]

let find ~workload ~size ~seed =
  List.find_map
    (fun (w, sz, s, d) ->
      if w = workload && sz = size && s = seed then Some d else None)
    digests
