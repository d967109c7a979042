(** Partitions of a graph into blocks (Section II-A).

    A partition [S = {P1, ..., Pk}] of a DAG [G] is a set of pairwise
    disjoint vertex sets covering [V].  The weight of a block is the sum
    of the weights of edges with both endpoints inside it; the objective
    value beta (Eq. 1) is the sum of block weights. *)

type t = Kfuse_util.Iset.t list
(** A partition as a list of blocks.  Canonical form: blocks ordered by
    smallest element, no empty blocks. *)

(** [normalize p] drops empty blocks and sorts blocks by smallest
    element. *)
val normalize : t -> t

(** [singletons g] is the finest partition of [g]: one block per vertex. *)
val singletons : Digraph.t -> t

(** Structural defects {!validate} can report. *)
type invalid =
  | Empty_block
  | Overlap of int  (** vertex in more than one block *)
  | Uncovered of int  (** graph vertex in no block *)
  | Unknown_vertex of int  (** block vertex not in the graph *)

val invalid_to_string : invalid -> string

(** [validate g p] checks that [p] is pairwise disjoint, free of empty
    blocks, and covers exactly the vertices of [g], reporting the first
    defect found (scanning blocks in order). *)
val validate : Digraph.t -> t -> (unit, invalid) result

(** [is_valid g p] is [validate g p = Ok ()]. *)
val is_valid : Digraph.t -> t -> bool

(** [block_of p v] is the block containing [v].
    @raise Not_found if no block contains [v]. *)
val block_of : t -> int -> Kfuse_util.Iset.t

(** [block_weight weight g block] is the total weight of edges of [g]
    inside [block], where the weight of edge [(u, v)] is [weight u v]. *)
val block_weight : (int -> int -> float) -> Digraph.t -> Kfuse_util.Iset.t -> float

(** [objective weight g p] is beta of Eq. 1: the sum of block weights. *)
val objective : (int -> int -> float) -> Digraph.t -> t -> float

(** [crossing_weight weight g p] is the total weight of edges whose
    endpoints lie in different blocks.  For a valid partition,
    [objective + crossing_weight = total edge weight] (Eq. 13). *)
val crossing_weight : (int -> int -> float) -> Digraph.t -> t -> float

(** [restrict p vs] is the partition [p] cut down to the vertex set [vs]:
    every block intersected with [vs], empties dropped, canonical form.
    Restricting a valid partition of [g] to a union of weak components of
    [g] yields a valid partition of the induced subgraph. *)
val restrict : t -> Kfuse_util.Iset.t -> t

(** [equal p q] compares partitions up to ordering of blocks. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
