type expr =
  | Int_lit of int
  | Float_lit of float
  | Double_lit of float
  | Ident of string
  | Call of string * expr list
  | Binop of string * expr * expr
  | Unop of string * expr
  | Ternary of expr * expr * expr
  | Index of expr * expr

type stmt =
  | Decl of { ctype : string; name : string; init : expr option }
  | Assign of expr * expr
  | If of { cond : expr; then_ : stmt list; else_ : stmt list }
  | For of { var : string; from_ : expr; below : expr; step : int; body : stmt list }
  | Pragma of string
  | Block of stmt list
  | Expr_stmt of expr
  | Return
  | Comment of string

type param = { ctype : string; name : string }

type func = {
  qualifiers : string list;
  ret : string;
  name : string;
  params : param list;
  body : stmt list;
}

let int_lit i = Int_lit i
let float_lit f = Float_lit f
let ident s = Ident s
let call f args = Call (f, args)
let ( +: ) a b = Binop ("+", a, b)
let ( -: ) a b = Binop ("-", a, b)
let ( *: ) a b = Binop ("*", a, b)
let ( /: ) a b = Binop ("/", a, b)
let ( <: ) a b = Binop ("<", a, b)
let ( >=: ) a b = Binop (">=", a, b)
let ( &&: ) a b = Binop ("&&", a, b)
let ( ||: ) a b = Binop ("||", a, b)
let index a i = Index (a, i)
let double_lit f = Double_lit f

(* The [for (v = a; v < b; v += step)] shape only terminates for a
   positive step; catch the degenerate loop when the AST is built, not
   when the generated C spins forever. *)
let for_ ~var ~from_ ~below ?(step = 1) body =
  if step < 1 then
    invalid_arg
      (Printf.sprintf "Cuda_ast.for_: nonpositive step %d in loop over %s" step var);
  For { var; from_; below; step; body }
