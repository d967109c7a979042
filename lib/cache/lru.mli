(** A string-keyed LRU map with hit/miss/eviction counters.

    Classic hash-table-plus-intrusive-doubly-linked-list: {!find} and
    {!put} are O(1); inserting into a full cache evicts the least
    recently used entry.  Not thread-safe — {!Plan_cache} serializes
    access for the [kfused] server. *)

type 'a t

(** [create ~capacity ()] is an empty cache holding at most [capacity]
    entries.  @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

(** [find t key] returns the value and marks it most recently used.
    Counts one hit or one miss. *)
val find : 'a t -> string -> 'a option

(** [put t key v] inserts or replaces [key], marking it most recently
    used; at capacity, the least recently used entry is evicted (counted
    in {!counters}). *)
val put : 'a t -> string -> 'a -> unit

(** [remove t key] drops [key] if present (not counted as an eviction). *)
val remove : 'a t -> string -> unit

val length : 'a t -> int
val capacity : 'a t -> int

(** [keys t] in most-recently-used-first order (for tests/inspection). *)
val keys : 'a t -> string list

(** [fold f t acc] folds [f] over every value, most recently used first,
    without marking any of them used or counting a hit. *)
val fold : ('a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

type counters = { hits : int; misses : int; evictions : int }

val counters : 'a t -> counters

(** [clear t] drops every entry; counters are preserved. *)
val clear : 'a t -> unit
