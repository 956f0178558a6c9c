(* Simulator utilities: deterministic RNG, statistics, the
   table/figure text renderer and the domain-safe memo. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

open Ccsim

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different seeds differ" true (Rng.next64 a <> Rng.next64 b)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    checkb "in range" true (x >= 0 && x < 10);
    let y = Rng.int_in r 5 9 in
    checkb "in inclusive range" true (y >= 5 && y <= 9);
    let f = Rng.float r 2.0 in
    checkb "float range" true (f >= 0.0 && f < 2.0)
  done

let test_rng_copy_and_split () =
  let r = Rng.create 3 in
  let c = Rng.copy r in
  Alcotest.(check int64) "copy tracks" (Rng.next64 r) (Rng.next64 c);
  let s = Rng.split r in
  checkb "split independent" true (Rng.next64 s <> Rng.next64 r)

let test_rng_shuffle_permutes () =
  let r = Rng.create 9 in
  let a = Array.init 50 (fun j -> j) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Array.iteri (fun j x -> checki "element preserved" j x) sorted

let test_rng_choose () =
  let r = Rng.create 11 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    checkb "member" true (Array.mem (Rng.choose r a) a)
  done

(* The first 10^4 outputs of every draw kind for six seeds, pinned from
   the generator when its state was a boxed [int64]: keeping the state
   unboxed must not move a bit. *)
let test_rng_sequence_pinned () =
  let b = Buffer.create (1 lsl 20) in
  let bounds = [| 1; 2; 3; 10; 1000; 1 lsl 30; max_int |] in
  List.iter
    (fun seed ->
      let r = Rng.create seed in
      for i = 0 to 9_999 do
        Printf.bprintf b "%Ld %d %h %b" (Rng.next64 r)
          (Rng.int r bounds.(i mod Array.length bounds))
          (Rng.float r 3.5) (Rng.bool r);
        if i mod 100 = 0 then Printf.bprintf b " s%Ld" (Rng.next64 (Rng.split r));
        Buffer.add_char b '\n'
      done)
    [ 0; 1; 42; 0x5DEECE66D; max_int; -1 ];
  checks "sequence digest" "dec3473eec8969013075deb5eb2411b5"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_rng_int_allocates_nothing () =
  let r = Rng.create 5 and draws = 100_000 and sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sum := !sum + Rng.int r 1000
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
  checkb "drew" true (!sum > 0);
  checkf "minor words per Rng.int" 0.0 (Float.round (per_draw *. 100.) /. 100.)

(* ---------------- Stats ---------------- *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 10;
  checki "a" 2 (Stats.get s "a");
  checki "b" 10 (Stats.get s "b");
  checki "absent" 0 (Stats.get s "nope");
  Alcotest.(check (list (pair string int))) "sorted listing"
    [ ("a", 2); ("b", 10) ] (Stats.to_list s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a "x" 1;
  Stats.add b "x" 2;
  Stats.add b "y" 5;
  Stats.merge_into ~dst:a b;
  checki "merged x" 3 (Stats.get a "x");
  checki "merged y" 5 (Stats.get a "y")

let test_geomean () =
  checkf "geomean pair" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  checkf "geomean identity" 3.0 (Stats.geomean [ 3.0; 3.0; 3.0 ]);
  checkf "empty is 1" 1.0 (Stats.geomean [])

let test_mean_percentile () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "median" 2.0 (Stats.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  checkf "p100" 3.0 (Stats.percentile 1.0 [ 3.0; 1.0; 2.0 ])

let test_percentile_empty_raises () =
  (* Regression: an empty sample list used to trip a bare [assert false];
     callers now get a diagnosable exception instead. *)
  Alcotest.check_raises "empty sample list"
    (Invalid_argument "Stats.percentile: empty sample list") (fun () ->
      ignore (Stats.percentile 0.5 []))

(* ---------------- Report ---------------- *)

let test_table_alignment () =
  let t = Report.table ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "1"; "22" ] ] in
  let lines = String.split_on_char '\n' t in
  checki "four lines" 4 (List.length lines);
  checks "rule under header" "---  --" (List.nth lines 1);
  (* No trailing spaces on any line. *)
  List.iter
    (fun l -> checkb "no trailing space" false (String.length l > 0 && l.[String.length l - 1] = ' '))
    lines

let test_bar () =
  checks "full bar" "####" (Report.bar ~width:4 ~max:1.0 1.0);
  checks "half bar" "##  " (Report.bar ~width:4 ~max:2.0 1.0);
  checks "clamped" "####" (Report.bar ~width:4 ~max:1.0 5.0);
  checks "negative clamped" "    " (Report.bar ~width:4 ~max:1.0 (-1.0))

let test_log_bar () =
  checks "one or less is empty" "    " (Report.log_bar ~width:4 ~max:100.0 1.0);
  checks "max is full" "####" (Report.log_bar ~width:4 ~max:100.0 100.0);
  checks "sqrt is half" "##  " (Report.log_bar ~width:4 ~max:100.0 10.0)

let test_pct_and_fixed () =
  checks "positive pct" "+1.40%" (Report.pct 0.014);
  checks "negative pct" "-2.00%" (Report.pct (-0.02));
  checks "fixed" "3.14" (Report.fixed 2 3.14159)

(* ---------------- Memo ---------------- *)

let test_memo_computes_once () =
  let m = Memo.create 4 in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  checki "miss computes" 1 (Memo.find_or_add m "a" compute);
  checki "hit returns the stored value" 1 (Memo.find_or_add m "a" compute);
  checki "computed once" 1 !calls;
  checki "add keeps the first value" 1 (Memo.add m "a" 99);
  checkb "find sees it" true (Memo.find m "a" = Some 1);
  Memo.clear m;
  checki "clear empties" 0 (Memo.length m);
  checkb "find after clear" true (Memo.find m "a" = None)

let test_memo_domains () =
  (* Four domains race to fill the same keys, each computing a value that
     names its own job: every caller must see the first stored value. *)
  let m = Memo.create 8 in
  let keys = 16 in
  let results =
    Pool.run ~jobs:4 (8 * keys) (fun i ->
        (i mod keys, Memo.find_or_add m (i mod keys) (fun () -> i)))
  in
  Array.iter
    (fun (k, v) ->
      checkb "first stored value" true (Memo.find m k = Some v);
      checki "value computed for its key" k (v mod keys))
    results;
  checki "one entry per distinct key" keys (Memo.length m)

let prop_rng_int_uniformish =
  QCheck.Test.make ~count:20 ~name:"rng int covers its range"
    QCheck.(int_range 2 20)
    (fun bound ->
      let r = Rng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all (fun x -> x) seen)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_rng_int_uniformish ]

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng copy/split", `Quick, test_rng_copy_and_split);
    ("rng shuffle", `Quick, test_rng_shuffle_permutes);
    ("rng choose", `Quick, test_rng_choose);
    ("rng sequence pinned", `Quick, test_rng_sequence_pinned);
    ("rng int allocates nothing", `Quick, test_rng_int_allocates_nothing);
    ("stats counters", `Quick, test_stats_counters);
    ("stats merge", `Quick, test_stats_merge);
    ("geomean", `Quick, test_geomean);
    ("mean/percentile", `Quick, test_mean_percentile);
    ("percentile rejects empty input", `Quick, test_percentile_empty_raises);
    ("report table", `Quick, test_table_alignment);
    ("report bar", `Quick, test_bar);
    ("report log bar", `Quick, test_log_bar);
    ("report pct/fixed", `Quick, test_pct_and_fixed);
    ("memo find_or_add computes once", `Quick, test_memo_computes_once);
    ("memo is domain-safe", `Quick, test_memo_domains);
  ]
  @ qsuite
