(** Undirected edge-weighted graphs.

    The min-cut step of the fusion algorithm (Section III-A) runs on the
    undirected view of a partition block: edge directions are dropped and
    the weights of parallel edges are summed.  Weights must be positive —
    the paper guarantees this by assigning illegal edges the small positive
    weight [epsilon] (Eq. 12). *)

type t

val empty : t

(** [add_vertex g v] adds an isolated vertex. *)
val add_vertex : t -> int -> t

(** [add_edge g u v w] adds weight [w > 0] to the undirected edge
    [{u, v}]; weights of repeated insertions accumulate.  Self loops are
    rejected. *)
val add_edge : t -> int -> int -> float -> t

(** [of_digraph weight g] is the undirected view of the directed graph
    [g], where the weight of each directed edge [(u, v)] is [weight u v]
    and antiparallel pairs accumulate. *)
val of_digraph : (int -> int -> float) -> Digraph.t -> t

(** [vertices g] is the vertex set. *)
val vertices : t -> Kfuse_util.Iset.t

(** [num_vertices g] is the vertex count. *)
val num_vertices : t -> int

(** [weight g u v] is the weight of edge [{u, v}], or [0.] if absent. *)
val weight : t -> int -> int -> float

(** [edges g] lists undirected edges as [(u, v, w)] with [u < v]. *)
val edges : t -> (int * int * float) list

(** [total_weight g] is the sum of all edge weights ([w_G] in Eq. 13). *)
val total_weight : t -> float

(** [cut_weight g side] is the total weight of edges with exactly one
    endpoint in [side] ([w_C] in Eq. 13). *)
val cut_weight : t -> Kfuse_util.Iset.t -> float

(** [is_connected g] tests connectivity; the empty graph and singletons
    are connected. *)
val is_connected : t -> bool

val pp : Format.formatter -> t -> unit
