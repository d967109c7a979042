module Lru = Kfuse_cache.Lru
module Driver = Kfuse_fusion.Driver

type t = { lru : Kfuse_cache.Fingerprint.key Lru.t; lock : Mutex.t }

let capacity = 4096
let create () = { lru = Lru.create ~capacity (); lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Every field is length-prefixed and the field sequence is fixed, so
   no two requests share an encoding; floats render as their bit
   patterns. *)
let digest ?size (f : Protocol.fuse_request) =
  let buf = Buffer.create 256 in
  let field s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let opt render = function
    | None -> Buffer.add_char buf '-'
    | Some v ->
      Buffer.add_char buf '+';
      field (render v)
  in
  let bits x = Int64.to_string (Int64.bits_of_float x) in
  opt Fun.id f.Protocol.app;
  opt Fun.id f.Protocol.source;
  opt (fun (w, h) -> Printf.sprintf "%dx%d" w h) size;
  opt bits f.Protocol.c_mshared;
  opt bits f.Protocol.gamma;
  opt bits f.Protocol.tg;
  field (Driver.strategy_to_string f.Protocol.strategy);
  field (string_of_bool f.Protocol.optimize);
  field (string_of_bool f.Protocol.inline);
  Digest.string (Buffer.contents buf)

let key t ?size (f : Protocol.fuse_request) =
  let d = digest ?size f in
  match locked t (fun () -> Lru.find t.lru d) with
  | Some k -> Ok (k, lazy (Planner.pipeline ?size (f.app, f.source)))
  | None ->
    Planner.pipeline ?size (f.app, f.source)
    |> Result.map (fun p ->
           let k = Planner.plan_key f p in
           locked t (fun () -> Lru.put t.lru d k);
           (k, Lazy.from_val (Ok p)))

type stats = { hits : int; misses : int; entries : int; capacity : int }

let stats t =
  locked t @@ fun () ->
  let c = Lru.counters t.lru in
  {
    hits = c.Lru.hits;
    misses = c.Lru.misses;
    entries = Lru.length t.lru;
    capacity = Lru.capacity t.lru;
  }

let stats_json s =
  let n i = Jsonx.Num (float_of_int i) in
  Jsonx.Obj
    [
      ("hits", n s.hits);
      ("misses", n s.misses);
      ("entries", n s.entries);
      ("capacity", n s.capacity);
    ]
