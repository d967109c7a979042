(** Producer inlining — an extension beyond the paper's partition model.

    The paper's kernel fusion partitions the DAG, so an intermediate
    consumed by {e several} kernels can never be eliminated: any block
    containing the producer and one consumer has an external output
    (Figure 2c), and a block containing all consumers has several sinks.
    Inlining takes the other classical route (the default schedule of
    Halide): replicate the producer's body into {e every} consumer and
    delete the producer, trading recomputation per consumer for the
    eliminated write and reads of the intermediate image.

    The profitability test reuses the paper's benefit vocabulary: inlining
    image [m] (producer [u], consumers [C]) saves
    [IS * tg * (1 + |C|)] cycles (one write plus each consumer's read)
    and costs [sum over c of cost_op(u) * IS_ks(u) * taps_c(m)]
    recomputation (Eq. 6/7 generalized to per-consumer tap counts).
    Border correctness uses the same index-exchange machinery as the
    fusion transform.

    Legality: the producer must be a map kernel whose output is not a
    pipeline output; consumers must be map kernels; each rewritten
    consumer must respect the Eq. 2 shared-memory growth bound relative
    to its pre-inline self. *)

(** Why a candidate cannot or should not be inlined. *)
type verdict =
  | Inline of { saved : float; cost : float }  (** profitable and legal *)
  | Keep_output  (** the image is a pipeline output *)
  | Keep_global  (** producer or a consumer is a reduction kernel *)
  | Keep_resource of { consumer : string; ratio : float }  (** Eq. 2 violated *)
  | Keep_unprofitable of { saved : float; cost : float }

(** [judge config pipeline image] evaluates inlining the producer of
    [image].
    @raise Invalid_argument if no kernel produces [image]. *)
val judge : Config.t -> Kfuse_ir.Pipeline.t -> string -> verdict

(** [inline_image ?exchange pipeline image] performs the rewrite
    unconditionally (legality of the rewrite itself — map kernels, not a
    pipeline output — is still required).
    @raise Invalid_argument when the rewrite is impossible. *)
val inline_image : ?exchange:bool -> Kfuse_ir.Pipeline.t -> string -> Kfuse_ir.Pipeline.t

(** [greedy config pipeline] repeatedly inlines the most profitable
    candidate, with index exchange, until none remains; returns the
    rewritten pipeline and the inlined image names in application
    order. *)
val greedy : Config.t -> Kfuse_ir.Pipeline.t -> Kfuse_ir.Pipeline.t * string list

val verdict_to_string : verdict -> string
