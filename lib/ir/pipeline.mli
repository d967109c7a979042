(** Pipelines: DAGs of kernels over a common iteration space.

    A pipeline is the unit the fusion problem is stated on (Section II):
    vertices are kernels, and an edge [(u, v)] means kernel [v] consumes
    the image produced by kernel [u].  Each kernel produces exactly one
    image, named after the kernel; pipeline inputs are free image names.

    All kernels of a pipeline share one iteration space
    ([width x height x channels]) — the header-compatibility requirement
    of Section II-B.2.  Channels model planar multi-channel processing
    (the Night filter runs on 1920x1200 RGB, i.e. 3 planes); the
    interpreter runs per plane while cost models scale by the channel
    count. *)

(** Maps keyed by kernel name. *)
module Names : Map.S with type key = string

type t = private {
  name : string;
  width : int;
  height : int;
  channels : int;
  inputs : string list;  (** external input image names *)
  params : (string * float) list;  (** scalar parameters with defaults *)
  kernels : Kernel.t array;  (** in topological order *)
  dag : Kfuse_graph.Digraph.t;
      (** the dependence DAG over indices into [kernels], built once by
          {!create}.  A plain immutable value, so pipelines stay
          structurally comparable and marshalable. *)
  index : int Names.t;
      (** each kernel's index by name, built once by {!create} from
          [kernels] alone, so equal kernel arrays give equal maps *)
}

(** [create ~name ~width ~height ?channels ?params ~inputs kernels]
    validates and builds a pipeline:
    - kernel names are unique and disjoint from [inputs];
    - every image a kernel reads is a pipeline input or another kernel;
    - the dependence graph is acyclic (kernels are stored topologically
      sorted);
    - global (reduction) kernels are sinks — their 1x1 output is not
      header-compatible with the iteration space;
    - every parameter referenced by a kernel body has a default in
      [params].
    @raise Invalid_argument describing the first violation. *)
val create :
  name:string ->
  width:int ->
  height:int ->
  ?channels:int ->
  ?params:(string * float) list ->
  inputs:string list ->
  Kernel.t list ->
  t

(** [num_kernels p] is the number of kernels (vertices). *)
val num_kernels : t -> int

(** [kernel p i] is the [i]-th kernel.
    @raise Invalid_argument when out of range. *)
val kernel : t -> int -> Kernel.t

(** [index_of p name] is the index of the kernel called [name];
    O(log n) in the number of kernels. *)
val index_of : t -> string -> int option

(** [index_of_exn p name] is [index_of] or [Invalid_argument]. *)
val index_of_exn : t -> string -> int

(** [dag p] is the dependence DAG over kernel indices: vertices
    [0 .. num_kernels p - 1], and an edge [(u, v)] for each kernel [v]
    reading kernel [u]'s image.  Built once by {!create}; O(1). *)
val dag : t -> Kfuse_graph.Digraph.t

(** [producer p image] is the index of the kernel producing [image], or
    [None] when [image] is a pipeline input. *)
val producer : t -> string -> int option

(** [consumers p i] is the set of kernel indices that read the output of
    kernel [i]. *)
val consumers : t -> int -> Kfuse_util.Iset.t

(** [outputs p] is the list of sink images (kernel outputs no other
    kernel reads), in kernel order. *)
val outputs : t -> string list

(** [is_pixels p] is the iteration-space size [IS] of one image:
    [width * height * channels] (Section II-C.2). *)
val is_pixels : t -> int

(** [edge_image p u v] is the intermediate image transported along the
    DAG edge [(u, v)] — the output of kernel [u].
    @raise Invalid_argument if [(u, v)] is not an edge. *)
val edge_image : t -> int -> int -> string

(** [with_kernels p kernels] rebuilds the pipeline around a new kernel
    list (used by the fusion transform), revalidating everything. *)
val with_kernels : t -> Kernel.t list -> t

val pp : Format.formatter -> t -> unit
