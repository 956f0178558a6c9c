(* On-disk run cache robustness: a round-trip is a hit, and every damaged or
   foreign entry degrades to a miss — never an exception, never a counted
   disk hit. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Run [f dir] with the cache enabled on a fresh temp directory. *)
let with_cache_dir f =
  let dir = Filename.temp_dir "runcache" "" in
  Soc.Runcache.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Soc.Runcache.set_dir None;
      rm_rf dir)
    (fun () -> f dir)

let key = ("kmp", 8, Some 16)
let value = ([ 1; 2; 3 ], "result", 4.5)

let entries dir =
  List.filter
    (fun f -> Filename.check_suffix f ".run")
    (Array.to_list (Sys.readdir dir))

(* Store [value] under [key] and return the path of its one entry file. *)
let stored_entry dir =
  Soc.Runcache.store key value;
  match entries dir with
  | [ f ] -> Filename.concat dir f
  | fs -> Alcotest.failf "expected one entry, found %d" (List.length fs)

let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let lookup () : (int list * string * float) option = Soc.Runcache.load key

let test_round_trip_hits () =
  with_cache_dir (fun dir ->
      ignore (stored_entry dir);
      Obs.Counters.reset ();
      checkb "round-trip is a hit" true (lookup () = Some value);
      checki "hit counted" 1 (Obs.Counters.get Obs.Counters.runs_disk_cached))

(* Rewrite the stored entry with [damage] and expect an uncounted miss. *)
let miss_after name damage () =
  with_cache_dir (fun dir ->
      let path = stored_entry dir in
      write path (damage (read path));
      Obs.Counters.reset ();
      checkb (name ^ " is a miss") true (lookup () = None);
      checki (name ^ " not counted") 0
        (Obs.Counters.get Obs.Counters.runs_disk_cached))

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
  Bytes.to_string b

let truncated s = String.sub s 0 (String.length s - 7)
let payload_flipped s = flip s (String.length s - 3)
let length_flipped s = flip s 31

(* A different binary's stamp sits in bytes 8..23, right after the magic. *)
let foreign_stamp s =
  String.sub s 0 8 ^ Digest.string "another binary"
  ^ String.sub s 24 (String.length s - 24)

let empty _ = ""
let garbage s = String.init (String.length s) (fun i -> Char.chr ((i * 37) land 0xff))

(* A failed store leaves no temp file behind: occupy the entry's name with a
   non-empty directory so the final rename fails. *)
let test_failed_store_cleans_up () =
  with_cache_dir (fun dir ->
      let path = stored_entry dir in
      Sys.remove path;
      Sys.mkdir path 0o755;
      write (Filename.concat path "occupant") "x";
      Soc.Runcache.store key value;
      let leftovers =
        List.filter
          (fun f -> f <> Filename.basename path)
          (Array.to_list (Sys.readdir dir))
      in
      checki "no temp file left" 0 (List.length leftovers);
      checkb "occupied entry is a miss" true (lookup () = None))

let suite =
  [
    ("round trip is a hit", `Quick, test_round_trip_hits);
    ("truncated entry misses", `Quick, miss_after "truncated" truncated);
    ("flipped payload byte misses", `Quick,
     miss_after "flipped payload" payload_flipped);
    ("flipped length byte misses", `Quick,
     miss_after "flipped length" length_flipped);
    ("foreign stamp misses", `Quick, miss_after "foreign stamp" foreign_stamp);
    ("empty entry misses", `Quick, miss_after "empty" empty);
    ("garbage entry misses", `Quick, miss_after "garbage" garbage);
    ("failed store leaves no temp", `Quick, test_failed_store_cleans_up);
  ]
