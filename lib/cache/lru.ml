type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* toward MRU *)
  mutable next : 'a node option;  (* toward LRU *)
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  capacity : int;
  mutable head : 'a node option;  (* MRU *)
  mutable tail : 'a node option;  (* LRU *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type counters = { hits : int; misses : int; evictions : int }

let create ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    tbl = Hashtbl.create (min capacity 64);
    capacity;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some n ->
    t.hits <- t.hits + 1;
    unlink t n;
    push_front t n;
    Some n.value

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl key

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl n.key;
    t.evictions <- t.evictions + 1

let put t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    n.value <- value;
    unlink t n;
    push_front t n
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
    let n = { key; value; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n

let length t = Hashtbl.length t.tbl
let capacity t = t.capacity

let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head

let fold f t acc =
  let rec go acc = function None -> acc | Some n -> go (f n.value acc) n.next in
  go acc t.head

let counters (t : 'a t) = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None
