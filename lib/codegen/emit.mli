(** Pretty-printing of the CUDA AST to C source text. *)

(** [expr ppf e] prints an expression with full parenthesization of
    nested operators (precedence-free and always correct). *)
val expr : Format.formatter -> Cuda_ast.expr -> unit

(** [stmt ppf s] prints a statement (with trailing newline). *)
val stmt : Format.formatter -> Cuda_ast.stmt -> unit

(** [func_to_string f] is a function definition rendered to a string. *)
val func_to_string : Cuda_ast.func -> string
