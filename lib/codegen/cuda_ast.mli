(** A small C/CUDA abstract syntax tree.

    Just enough C to express the kernels our lowering produces: flat
    types ([float], [int], pointers), expressions, declarations,
    conditionals, and function definitions with CUDA qualifiers.  The
    printer in {!Emit} renders it as compilable CUDA C. *)

type expr =
  | Int_lit of int
  | Float_lit of float  (** [%.9gf]: a 32-bit [float] literal *)
  | Double_lit of float  (** [%.17g]: a full-precision [double] literal *)
  | Ident of string
  | Call of string * expr list
  | Binop of string * expr * expr  (** infix operator, e.g. "+" or "&&" *)
  | Unop of string * expr  (** prefix operator, e.g. "-" or "!" *)
  | Ternary of expr * expr * expr
  | Index of expr * expr  (** [a\[i\]] *)

type stmt =
  | Decl of { ctype : string; name : string; init : expr option }
  | Assign of expr * expr
  | If of { cond : expr; then_ : stmt list; else_ : stmt list }
  | For of { var : string; from_ : expr; below : expr; step : int; body : stmt list }
      (** [for (int var = from_; var < below; var += step) { body }] *)
  | Pragma of string  (** [#pragma ...] on its own line *)
  | Block of stmt list  (** [{ ... }]: a compound statement, e.g. after [omp parallel] *)
  | Expr_stmt of expr
  | Return
  | Comment of string

type param = { ctype : string; name : string }

type func = {
  qualifiers : string list;  (** e.g. ["__global__"] or ["__device__"] *)
  ret : string;
  name : string;
  params : param list;
  body : stmt list;
}

(** {1 Convenience constructors} *)

val int_lit : int -> expr
val float_lit : float -> expr
val double_lit : float -> expr
val ident : string -> expr
val call : string -> expr list -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val index : expr -> expr -> expr

(** [for_ ~var ~from_ ~below ?step body] is a validated {!constructor:For}.
    @raise Invalid_argument when [step < 1] — the emitted
    [for (v = a; v < b; v += step)] shape never terminates for a
    nonpositive step (default [1]). *)
val for_ : var:string -> from_:expr -> below:expr -> ?step:int -> stmt list -> stmt
