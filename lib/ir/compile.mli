(** Row-batched compilation of kernel bodies.

    The tree-walking interpreter in {!Eval} re-dispatches on every AST
    node for every pixel and returns a boxed float from each.  This
    module compiles an expression once into a tree of closures, one per
    node, each of which runs once per {e batch} of positions (one image
    row, or a compacted subset of it), loops over the batch and writes
    into a preallocated unboxed [float array].  Image lookups, parameter
    values, operators and the offsets of [Shift]s without exchange are
    resolved at compile time; an in-bounds tap reads the image's storage
    directly.  {!Eval.run} drives it row by row.

    The result is bit-identical to {!Eval.eval_expr} at every pixel,
    including where that raises:
    - every sub-expression is evaluated at exactly the positions where
      [eval_expr] evaluates it: a [Select] runs each branch on the
      compacted sub-batch of lanes that take it, and an exchange [Shift]
      in [Constant]/[Undefined] mode runs its body only on the lanes
      that resolve inside (the others take the constant, or raise);
    - a [Let] value is stored by the row lane it was bound for, so a
      [Var] under a nested [Shift] or in a compacted branch reads the
      value bound at its own output pixel (lexical scoping).

    A compiled expression owns its buffers: it is not reentrant, and
    one is compiled per kernel run. *)

type t

(** [expr ~width ~height ~params ~lookup e] compiles [e] for rows of a
    [width x height] iteration space.  [lookup] resolves image names
    (called once per distinct access at compile time).
    @raise Invalid_argument on unbound parameters or variables (image
    lookup errors are whatever [lookup] raises). *)
val expr :
  width:int ->
  height:int ->
  params:(string * float) list ->
  lookup:(string -> Kfuse_image.Image.t) ->
  Expr.t ->
  t

(** [row c y] evaluates the expression at [(0, y) .. (width - 1, y)].
    The result is [c]'s own buffer, overwritten by the next call.
    @raise Invalid_argument where {!Eval.eval_expr} raises on that row. *)
val row : t -> int -> float array

(** [fold op acc a n] is [acc op a.(0) op ... op a.(n - 1)], left to
    right: a [Reduce]'s combine over one row. *)
val fold : Expr.binop -> float -> float array -> int -> float
