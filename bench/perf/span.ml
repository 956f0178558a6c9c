(* Host-time spans recorded from the benchmark side, around calls into the
   library's public functions.  Off by default: [wrap] is then a direct call,
   so the untraced run pays nothing.  Spans stay in memory and are written
   once, at the end of the child process. *)

type t = {
  id : int;
  parent : int;  (** 0 = top level *)
  name : string;  (** layer-qualified, e.g. ["soc.run"] *)
  arg : string;  (** what the call was about: a kernel, a column *)
  start : float;  (** seconds since the process's time origin *)
  stop : float;
}

let enabled = ref false
let origin = ref 0.0
let recorded : t list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

let enable ~origin:o =
  enabled := true;
  origin := o

let wrap ?(arg = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () -. !origin in
    let finish () =
      stack := List.tl !stack;
      recorded :=
        { id; parent; name; arg; start;
          stop = Unix.gettimeofday () -. !origin }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !recorded

let durations ?arg name =
  List.filter_map
    (fun s ->
      if s.name = name && (arg = None || arg = Some s.arg) then
        Some (s.stop -. s.start)
      else None)
    (all ())

let total ?arg name = List.fold_left ( +. ) 0.0 (durations ?arg name)

let to_json ~workload ~rep spans =
  let open Obs.Json in
  Obj
    [
      ("schema", String "perf-spans/1");
      ("workload", String workload);
      ("rep", String rep);
      ( "spans",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("parent", Int s.parent);
                   ("name", String s.name);
                   ("arg", String s.arg);
                   ("start_s", Float s.start);
                   ("end_s", Float s.stop);
                 ])
             spans) );
    ]

(* Chrome trace-event format, loadable in ui.perfetto.dev: one complete
   ("X") event per span, nesting shown by time containment on one track. *)
let to_chrome ~workload ~rep spans =
  let open Obs.Json in
  let us x = Float (x *. 1e6) in
  Obj
    [
      ( "traceEvents",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", String s.name);
                   ("cat", String (List.hd (String.split_on_char '.' s.name)));
                   ("ph", String "X");
                   ("ts", us s.start);
                   ("dur", us (s.stop -. s.start));
                   ("pid", Int 1);
                   ("tid", Int 1);
                   ( "args",
                     Obj
                       [
                         ("arg", String s.arg);
                         ("id", Int s.id);
                         ("parent", Int s.parent);
                         ("workload", String workload);
                         ("rep", String rep);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", String "ms");
    ]

(* An unwritable directory loses the span files, not the measurement. *)
let write ~dir ~workload ~rep =
  let spans = all () in
  let write_file path json =
    match
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Obs.Json.to_string json))
    with
    | () -> ()
    | exception Sys_error msg -> prerr_endline ("perf: spans not written: " ^ msg)
  in
  let base = Filename.concat dir (workload ^ "-" ^ rep) in
  write_file (base ^ ".spans.json") (to_json ~workload ~rep spans);
  write_file (base ^ ".perfetto.json") (to_chrome ~workload ~rep spans)
