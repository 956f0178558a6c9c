(* On-disk, cross-process run cache.

   The in-memory whole-run memo (see {!Run}) dies with the process, so
   repeated sweeps — re-running a bench after an unrelated edit, CI jobs
   sharing a workspace, capsim invocations in a shell loop — recompute
   identical results from scratch.  When a cache directory is configured,
   eligible results are additionally persisted there, one file per memo key.

   Safety over speed: entries are keyed by the digest of the marshalled memo
   key *and* a digest of the running binary, so any rebuild — which may
   change timing, result layout or the meaning of a key field — orphans the
   old entries rather than replaying them.  Files are written to a temp name
   and renamed into place (concurrent sweep workers race benignly).

   [Marshal] trusts its input, so a file is never unmarshalled until plain
   byte comparisons have shown it is exactly what this binary wrote:

     magic (8) | binary stamp (16) | payload length (8, big-endian)
     | payload MD5 (16) | payload (marshalled value)

   A file that is short, foreign, truncated, padded or altered in any byte
   fails one of those checks and degrades to a miss. *)

let dir_ref = Atomic.make None

let set_dir d = Atomic.set dir_ref d
let dir () = Atomic.get dir_ref

let magic = "CAPRUN01"

let header_len = String.length magic + 16 + 8 + 16

(* Digest of the running executable: ties every entry to the exact binary
   that produced it.  [Sys.executable_name] can be unreadable under exotic
   launchers; then the cache silently disables rather than risking stale
   hits. *)
let binary_stamp =
  lazy (try Some (Digest.file Sys.executable_name) with _ -> None)

let entry_path ~dir ~stamp key =
  let digest = Digest.string (stamp ^ Marshal.to_string key []) in
  Filename.concat dir (Digest.to_hex digest ^ ".run")

let with_cache f =
  match dir () with
  | None -> None
  | Some dir -> (
      match Lazy.force binary_stamp with
      | None -> None
      | Some stamp -> f ~dir ~stamp)

let encode ~stamp payload =
  let len = Bytes.create 8 in
  Bytes.set_int64_be len 0 (Int64.of_int (String.length payload));
  String.concat ""
    [ magic; stamp; Bytes.to_string len; Digest.string payload; payload ]

(* The payload of [file] if every header field checks out, else [None]. *)
let decode ~stamp file =
  let n = String.length file in
  if n < header_len then None
  else
    let field off len = String.sub file off len in
    let m = String.length magic in
    let len = String.get_int64_be file (m + 16) in
    if
      field 0 m <> magic
      || field m 16 <> stamp
      || not (Int64.equal len (Int64.of_int (n - header_len)))
    then None
    else
      let payload = field header_len (n - header_len) in
      if Digest.string payload <> field (m + 24) 16 then None
      else Some payload

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load (key : 'k) : 'v option =
  with_cache (fun ~dir ~stamp ->
      match decode ~stamp (read_file (entry_path ~dir ~stamp key)) with
      | exception _ -> None
      | None -> None
      | Some payload -> (
          match (Marshal.from_string payload 0 : 'v) with
          | exception _ -> None
          | v ->
              Obs.Counters.incr Obs.Counters.runs_disk_cached;
              Some v))

let store (key : 'k) (v : 'v) =
  ignore
    (with_cache (fun ~dir ~stamp ->
         (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
         let path = entry_path ~dir ~stamp key in
         let tmp =
           Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
             (Domain.self () :> int)
         in
         (try
            let oc = open_out_bin tmp in
            (try
               output_string oc (encode ~stamp (Marshal.to_string v []));
               close_out oc
             with e ->
               close_out_noerr oc;
               raise e);
            Sys.rename tmp path
          with _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
         None))
