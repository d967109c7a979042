module Driver = Kfuse_fusion.Driver

type entry = { exact : string; report : Driver.report }

(* How many namings of one structure a memory slot keeps.  A renamed
   copy shares its original's slot; with room for both, neither evicts
   the other. *)
let namings_per_slot = 4

type t = {
  mem : entry list Lru.t;  (* per structural key, most recently used first *)
  dir : string option;
  lock : Mutex.t;
  (* The keys being computed by [find_or_compute]. *)
  planning : Fingerprint.key Kfuse_util.Single_flight.t;
  (* Cache-level counters: the LRU's own hit counter would misreport an
     entry found under the structural key but rejected by the exact
     guard, so lookups are accounted here. *)
  mutable hits : int;
  mutable misses : int;
  mutable iso_misses : int;
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable disk_errors : int;
  mutable stores : int;
}

type outcome = Hit_memory | Hit_disk | Miss | Miss_iso

let outcome_to_string = function
  | Hit_memory -> "hit"
  | Hit_disk -> "hit-disk"
  | Miss -> "miss"
  | Miss_iso -> "miss-iso"

let default_dir () =
  let join a b = Filename.concat a b in
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> join d "kfuse"
  | _ -> (
    match Sys.getenv_opt "HOME" with
    | Some h when h <> "" -> join (join h ".cache") "kfuse"
    | _ -> join (Filename.get_temp_dir_name ()) "kfuse")

let create ?(capacity = 256) ?dir () =
  {
    mem = Lru.create ~capacity ();
    dir;
    lock = Mutex.create ();
    planning = Kfuse_util.Single_flight.create ();
    hits = 0;
    misses = 0;
    iso_misses = 0;
    disk_hits = 0;
    disk_misses = 0;
    disk_errors = 0;
    stores = 0;
  }

let dir t = t.dir

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- disk tier ----

   One file per structural key: a two-line text header (format version +
   producing OCaml version, then the payload digest) followed by the
   marshaled entry.  Marshal is build-sensitive, which is exactly why the
   header pins the OCaml version: a switch upgrade invalidates the store
   instead of crashing it. *)

(* Bump the format number whenever a marshaled type changes shape, since
   reading a value back as a different layout is memory-unsafe.  2:
   [Pipeline.t] gained its stored dependence DAG.  3: and its index of
   kernels by name.  4: [Kernel.t] stores its radius.  A test pins the
   number next to a shape digest of a canonical report, so a layout
   change that forgets the bump fails there. *)
let format_version = 4
let magic = Printf.sprintf "kfuse-plan %d %s %d" format_version Sys.ocaml_version Sys.word_size

let path_of t key = Option.map (fun d -> Filename.concat d (key ^ ".plan")) t.dir

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

exception Corrupt of string

let read_entry path =
  In_channel.with_open_bin path (fun ic ->
      let header = try input_line ic with End_of_file -> raise (Corrupt "empty file") in
      if not (String.equal header magic) then raise (Corrupt "version mismatch");
      let expected =
        try input_line ic with End_of_file -> raise (Corrupt "missing digest")
      in
      let payload = In_channel.input_all ic in
      if not (String.equal expected (Digest.to_hex (Digest.string payload))) then
        raise (Corrupt "payload digest mismatch");
      (Marshal.from_string payload 0 : entry))

(* Numbers this process's temp files: writers run outside the cache
   lock, so no two of them may share a temp name. *)
let tmp_seq = Atomic.make 0

let write_entry path (e : entry) =
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1)
  in
  let payload = Marshal.to_string e [] in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc magic;
      output_char oc '\n';
      output_string oc (Digest.to_hex (Digest.string payload));
      output_char oc '\n';
      output_string oc payload);
  (* Atomic within a filesystem: readers see the old entry or the new
     one, never a torn write. *)
  Unix.rename tmp path

(* What the disk tier says about a key.  Read without the cache lock:
   the file read, its digest and the unmarshal are the slow part. *)
type disk_read = Disk_off | Disk_hit of entry | Disk_miss | Disk_corrupt

let disk_read t (key : Fingerprint.key) =
  match path_of t key.Fingerprint.structural with
  | None -> Disk_off
  | Some path -> (
    if not (Sys.file_exists path) then Disk_miss
    else
      match read_entry path with
      | e -> if String.equal e.exact key.Fingerprint.exact then Disk_hit e else Disk_miss
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception _ ->
        (* Unreadable or corrupt: drop it so the slot heals on the next
           store, and account for it (KF0701 territory, never fatal). *)
        (try Sys.remove path with Sys_error _ -> ());
        Disk_corrupt)

let disk_store t (key : Fingerprint.key) (e : entry) =
  match path_of t key.Fingerprint.structural with
  | None -> ()
  | Some path -> (
    try write_entry path e
    with
    | (Out_of_memory | Stack_overflow) as e -> raise e
    | _ -> locked t (fun () -> t.disk_errors <- t.disk_errors + 1))

(* ---- lookup / store ---- *)

(* [slot_add e slot] is [slot] with [e] first, any older entry under
   [e]'s exact key dropped, and cut to [namings_per_slot]. *)
let slot_add e slot =
  let rest = List.filter (fun o -> not (String.equal o.exact e.exact)) slot in
  List.filteri (fun i _ -> i < namings_per_slot) (e :: rest)

(* Call with the lock held. *)
let mem_add t structural e =
  let slot = Option.value ~default:[] (Lru.find t.mem structural) in
  Lru.put t.mem structural (slot_add e slot)

(* [Error outcome] is a miss, qualified: plain, or a known structure
   under a naming its slot does not hold (served only by recomputation,
   never by translation, so replies stay bit-identical to a fresh run). *)
let lookup t (key : Fingerprint.key) =
  let structural = key.Fingerprint.structural in
  let in_memory =
    locked t @@ fun () ->
    match Lru.find t.mem structural with
    | None -> None
    | Some slot -> (
      match List.find_opt (fun e -> String.equal e.exact key.Fingerprint.exact) slot with
      | Some e ->
        t.hits <- t.hits + 1;
        if e != List.hd slot then Lru.put t.mem structural (slot_add e slot);
        Some (Ok (e.report, Hit_memory))
      | None ->
        t.iso_misses <- t.iso_misses + 1;
        Some (Error Miss_iso))
  in
  match in_memory with
  | Some r -> r
  | None -> (
    let read = disk_read t key in
    locked t @@ fun () ->
    let miss () =
      t.misses <- t.misses + 1;
      Error Miss
    in
    match read with
    | Disk_hit e ->
      t.disk_hits <- t.disk_hits + 1;
      t.hits <- t.hits + 1;
      mem_add t structural e;
      Ok (e.report, Hit_disk)
    | Disk_off -> miss ()
    | Disk_miss ->
      t.disk_misses <- t.disk_misses + 1;
      miss ()
    | Disk_corrupt ->
      t.disk_errors <- t.disk_errors + 1;
      miss ())

let find t key = match lookup t key with Ok r -> Some r | Error _ -> None

let store t (key : Fingerprint.key) (report : Driver.report) =
  (* A degraded report reflects a budget or an injected fault, not the
     pipeline's content — caching it would replay a transient accident
     forever.  Only clean runs are content-addressable. *)
  if not report.Driver.degraded then begin
    let e = { exact = key.Fingerprint.exact; report } in
    locked t (fun () ->
        mem_add t key.Fingerprint.structural e;
        t.stores <- t.stores + 1);
    (* Outside the lock: each writer renames its own temp file into
       place, so racing stores need no serializing here. *)
    disk_store t key e
  end

(* [why] is the last lookup's miss: the outcome of a computed plan. *)
let find_or_compute t key compute =
  let why = ref Miss in
  let find () =
    match lookup t key with
    | Ok r -> Some (Ok r)
    | Error w ->
      why := w;
      None
  in
  Kfuse_util.Single_flight.run t.planning key ~find @@ fun () ->
  match compute () with
  | Error _ as e -> e
  | Ok report ->
    store t key report;
    Ok (report, !why)

type stats = {
  hits : int;
  misses : int;
  iso_misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  disk_hits : int;
  disk_misses : int;
  disk_errors : int;
  stores : int;
}

let stats t =
  locked t @@ fun () ->
  let c = Lru.counters t.mem in
  {
    hits = t.hits - t.disk_hits;
    misses = t.misses;
    iso_misses = t.iso_misses;
    evictions = c.Lru.evictions;
    entries = Lru.fold (fun slot n -> n + List.length slot) t.mem 0;
    capacity = Lru.capacity t.mem;
    disk_hits = t.disk_hits;
    disk_misses = t.disk_misses;
    disk_errors = t.disk_errors;
    stores = t.stores;
  }

let hit_rate s =
  let served = s.hits + s.disk_hits in
  let total = served + s.misses + s.iso_misses in
  if total = 0 then 0.0 else float_of_int served /. float_of_int total

let clear t = locked t @@ fun () -> Lru.clear t.mem
