(** Line-buffered reuse of repeated stencil taps.

    In the clamp-free interior of a stencil [Map] every coordinate the
    body evaluates lies inside the image, so every index exchange is the
    identity and a [Shift] only moves the evaluation point.  Two
    subexpressions that differ by a translation then compute the same
    value at translated pixels: the paper's redundant-recomputation cost
    φ (Eqs. 6–7) made concrete, as when a 3×3 geometric mean takes the
    [log] of every input pixel nine times.

    [analyse] normalises every subexpression of a body by translation
    and picks the ones to compute once per pixel into a line buffer.  A
    subexpression is hoisted when all of these hold:
    - it occurs at two or more distinct offsets;
    - it has no free variables;
    - it is not a bare [Input] (under any [Shift]s);
    - it contains a [Div], [Pow], [Sqrt], [Exp], [Log], [Sin] or [Cos].

    Selection is top-down: a hoisted subexpression's own subexpressions
    are not considered again. *)

(** One hoisted subexpression. *)
type hoist = {
  expr : Kfuse_ir.Expr.t;  (** a representative occurrence *)
  anchor : int * int;
      (** the offset of its first [Input] (in evaluation order, through
          [Shift]s) from its own evaluation point *)
  positions : (int * int) list;
      (** sorted and distinct: for each occurrence the body reads, the
          offset of that first [Input] from the output pixel *)
}

type t

(** [analyse body] is the hoisting decision for [body]'s interior. *)
val analyse : Kfuse_ir.Expr.t -> t

(** The hoisted subexpressions, in the order the body first reaches
    them; empty when the rule never fires. *)
val hoists : t -> hoist list

(** [find t e] is [Some (i, anchor)] when the node [e] (physically, as
    reached by a lowering of the body) is an occurrence of the [i]-th
    hoist, whose first [Input] is at [anchor] from [e]'s evaluation
    point. *)
val find : t -> Kfuse_ir.Expr.t -> (int * (int * int)) option
