open Cuda_ast

(* Non-finite constants have no C float-literal spelling: "%.9gf" of
   infinity renders as the identifier "inff" and nan as "nanf", neither
   of which compiles.  <math.h> macros are the portable spellings. *)
let float_to_c f =
  if Float.is_nan f then "NAN"
  else if f = Float.infinity then "INFINITY"
  else if f = Float.neg_infinity then "-INFINITY"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1ff" f
  else Printf.sprintf "%.9gf" f

(* Unsuffixed (double) literal: %.17g round-trips every IEEE double, so
   the compiled constant is bit-identical to the interpreter's. *)
let double_to_c f =
  if Float.is_nan f then "NAN"
  else if f = Float.infinity then "INFINITY"
  else if f = Float.neg_infinity then "-INFINITY"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec expr ppf = function
  | Int_lit i -> Format.pp_print_int ppf i
  | Float_lit f -> Format.pp_print_string ppf (float_to_c f)
  | Double_lit f -> Format.pp_print_string ppf (double_to_c f)
  | Ident s -> Format.pp_print_string ppf s
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") expr)
      args
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" expr a op expr b
  | Unop (op, a) ->
    (* "-" directly against an operand that renders with a leading "-"
       (a negative literal, -INFINITY) would paste into the "--"
       decrement token; a space keeps the two minuses separate. *)
    let sa = Format.asprintf "%a" expr a in
    let sep =
      if op <> "" && sa <> "" && op.[String.length op - 1] = sa.[0] then " " else ""
    in
    Format.fprintf ppf "(%s%s%s)" op sep sa
  | Ternary (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" expr c expr a expr b
  | Index (a, i) -> Format.fprintf ppf "%a[%a]" expr a expr i

let rec stmt_indent ppf (ind, s) =
  let pad = String.make ind ' ' in
  match s with
  | Decl { ctype; name; init = None } -> Format.fprintf ppf "%s%s %s;@," pad ctype name
  | Decl { ctype; name; init = Some e } ->
    Format.fprintf ppf "%s%s %s = %a;@," pad ctype name expr e
  | Assign (lhs, rhs) -> Format.fprintf ppf "%s%a = %a;@," pad expr lhs expr rhs
  | Expr_stmt e -> Format.fprintf ppf "%s%a;@," pad expr e
  | Return -> Format.fprintf ppf "%sreturn;@," pad
  | Comment c -> Format.fprintf ppf "%s// %s@," pad c
  | Pragma text ->
    (* OpenMP pragmas compile under any toolchain: a compiler without
       -fopenmp would warn (fatally under -Wall -Werror) on the unknown
       pragma, so guard them behind the _OPENMP feature macro. *)
    if String.length text >= 4 && String.sub text 0 4 = "omp " then
      Format.fprintf ppf "%s#ifdef _OPENMP@,%s#pragma %s@,%s#endif@," pad pad text pad
    else Format.fprintf ppf "%s#pragma %s@," pad text
  | Block body ->
    Format.fprintf ppf "%s{@," pad;
    List.iter (fun s -> stmt_indent ppf (ind + 2, s)) body;
    Format.fprintf ppf "%s}@," pad
  | For { var; from_; below; step; body } ->
    (* Backstop for AST values built without {!Cuda_ast.for_}: a
       nonpositive step would print as a loop that never terminates. *)
    if step < 1 then
      invalid_arg
        (Printf.sprintf "Emit: for-loop over %s has nonpositive step %d" var step);
    if step = 1 then
      Format.fprintf ppf "%sfor (int %s = %a; %s < %a; ++%s) {@," pad var expr from_ var
        expr below var
    else
      Format.fprintf ppf "%sfor (int %s = %a; %s < %a; %s += %d) {@," pad var expr from_
        var expr below var step;
    List.iter (fun s -> stmt_indent ppf (ind + 2, s)) body;
    Format.fprintf ppf "%s}@," pad
  | If { cond; then_; else_ } ->
    Format.fprintf ppf "%sif (%a) {@," pad expr cond;
    List.iter (fun s -> stmt_indent ppf (ind + 2, s)) then_;
    if else_ = [] then Format.fprintf ppf "%s}@," pad
    else begin
      Format.fprintf ppf "%s} else {@," pad;
      List.iter (fun s -> stmt_indent ppf (ind + 2, s)) else_;
      Format.fprintf ppf "%s}@," pad
    end

let stmt ppf s = Format.fprintf ppf "@[<v>%a@]" stmt_indent (0, s)

let func ppf f =
  Format.fprintf ppf "@[<v>%s%s %s(%s) {@,"
    (match f.qualifiers with [] -> "" | qs -> String.concat " " qs ^ " ")
    f.ret f.name
    (String.concat ", " (List.map (fun p -> p.ctype ^ " " ^ p.name) f.params));
  List.iter (fun s -> stmt_indent ppf (2, s)) f.body;
  Format.fprintf ppf "}@]"

let func_to_string f = Format.asprintf "%a" func f
