type ('k, 'v) t = { lock : Mutex.t; tbl : ('k, 'v) Hashtbl.t }

let create n = { lock = Mutex.create (); tbl = Hashtbl.create n }

let find m k = Mutex.protect m.lock (fun () -> Hashtbl.find_opt m.tbl k)

let add m k v =
  Mutex.protect m.lock (fun () ->
      match Hashtbl.find_opt m.tbl k with
      | Some first -> first
      | None ->
          Hashtbl.add m.tbl k v;
          v)

let find_or_add m k compute =
  match find m k with Some v -> v | None -> add m k (compute ())

let length m = Mutex.protect m.lock (fun () -> Hashtbl.length m.tbl)

let clear m = Mutex.protect m.lock (fun () -> Hashtbl.reset m.tbl)
