(* Spans of the traced run: name, start, end, parent span and request
   id.  They are kept in memory while the benchmark runs, the per-layer
   metrics are computed from them, and {!write} dumps them as JSON lines
   at exit.  Recording costs one allocation and one mutex round per
   span. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span; -1 for a root *)
  req : int;  (** request id; -1 when the span serves no single request *)
  start : float;
  mutable stop : float;
}

let lock = Mutex.create ()
let table : (int, t) Hashtbl.t = Hashtbl.create 4096
let next_id = ref 0
let next_req = Atomic.make 0

let fresh_req () = Atomic.fetch_and_add next_req 1

let enter ?parent ?(req = -1) name =
  let parent = match parent with Some p -> p.id | None -> -1 in
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  let s = { id; name; parent; req; start = Unix.gettimeofday (); stop = Float.nan } in
  Hashtbl.replace table id s;
  Mutex.unlock lock;
  s

let leave s = s.stop <- Unix.gettimeofday ()

(* [time ?parent ?req name f] runs [f span] inside a span. *)
let time ?parent ?req name f =
  let s = enter ?parent ?req name in
  Fun.protect ~finally:(fun () -> leave s) (fun () -> f s)

let ms s = (s.stop -. s.start) *. 1000.

let sorted () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun _ s acc -> if Float.is_nan s.stop then acc else s :: acc) table [] in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.id b.id) all

(* [durations ?under name] is the duration in ms of every finished span
   called [name], in start order; with [under], only those whose parent
   span is called [under]. *)
let durations ?under name =
  let all = sorted () in
  let parent_name s =
    match Hashtbl.find_opt table s.parent with Some p -> p.name | None -> ""
  in
  List.filter_map
    (fun s ->
      if s.name <> name then None
      else
        match under with
        | Some u when parent_name s <> u -> None
        | _ -> Some (ms s))
    all

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.name s.parent s.req s.start s.stop)
    (sorted ());
  close_out oc
