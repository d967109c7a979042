(** Reference interpreter.

    Executes pipelines on concrete images — the ground truth against
    which every fusion transform is checked.  The paper validates fusion
    correctness by running generated CUDA on hardware; here the
    interpreter plays that role (see DESIGN.md, substitutions). *)

module Env : Map.S with type key = string

type env = Kfuse_image.Image.t Env.t

(** [env_of_list bindings] builds an environment from name/image pairs. *)
val env_of_list : (string * Kfuse_image.Image.t) list -> env

(** [eval_expr ~env ~params ~width ~height ~x ~y e] evaluates [e] at
    position [(x, y)] of a [width x height] iteration space.
    [Shift] exchange is resolved against that iteration space.
    @raise Invalid_argument on an unbound image or parameter, on an
    [Undefined]-border access that leaves the image, or on a [Shift]
    exchange that resolves to [Undef]. *)
val eval_expr :
  env:env ->
  params:(string * float) list ->
  width:int ->
  height:int ->
  x:int ->
  y:int ->
  Expr.t ->
  float

(** [run p inputs] executes all kernels of [p] in topological order on
    one image plane.  [inputs] must bind exactly the pipeline inputs,
    each of the pipeline's extent.  The result binds inputs and every
    kernel output.  Parameter values are the pipeline defaults overridden
    by [params].
    @raise Invalid_argument on missing/extra/ill-sized inputs. *)
val run : ?params:(string * float) list -> Pipeline.t -> env -> env

(** [run_outputs p inputs] is [run] restricted to the pipeline's sink
    images, sorted by name (stable across pipeline transformations). *)
val run_outputs :
  ?params:(string * float) list -> Pipeline.t -> env -> (string * Kfuse_image.Image.t) list
