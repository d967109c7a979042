type pattern = Point | Local of int | Global

type op =
  | Map of Expr.t
  | Reduce of { init : float; combine : Expr.binop; arg : Expr.t }

type t = { name : string; inputs : string list; op : op; radius : int }

let expr_of_op = function Map e -> e | Reduce { arg; _ } -> arg

let create ~name ~inputs op =
  if String.length name = 0 then invalid_arg "Kernel.create: empty name";
  (match Expr.free_vars (expr_of_op op) with
  | [] -> ()
  | v :: _ ->
    invalid_arg (Printf.sprintf "Kernel.create(%s): unbound variable %%%s" name v));
  let read = Expr.images (expr_of_op op) in
  let missing = List.filter (fun i -> not (List.mem i read)) inputs in
  let undeclared = List.filter (fun i -> not (List.mem i inputs)) read in
  (match (missing, undeclared) with
  | [], [] -> ()
  | i :: _, _ ->
    invalid_arg (Printf.sprintf "Kernel.create(%s): declared input %S is never read" name i)
  | _, i :: _ ->
    invalid_arg (Printf.sprintf "Kernel.create(%s): body reads undeclared image %S" name i));
  let radius = Expr.radius (expr_of_op op) in
  (match op with
  | Reduce _ when radius > 0 ->
    invalid_arg
      (Printf.sprintf "Kernel.create(%s): reduction argument must be a point expression" name)
  | Reduce _ | Map _ -> ());
  { name; inputs; op; radius }

let map ~name ~inputs body = create ~name ~inputs (Map body)

let reduce ~name ~inputs ~init ~combine arg =
  create ~name ~inputs (Reduce { init; combine; arg })

let radius k = k.radius

let pattern k =
  match k.op with Reduce _ -> Global | Map _ -> if k.radius = 0 then Point else Local k.radius

let mask_width k = (2 * k.radius) + 1
let mask_area k = mask_width k * mask_width k

let body k =
  match k.op with
  | Map e -> e
  | Reduce _ -> invalid_arg (Printf.sprintf "Kernel.body(%s): global kernel" k.name)

let is_point k = match pattern k with Point -> true | Local _ | Global -> false
let is_local k = k.radius > 0
let is_global k = match k.op with Reduce _ -> true | Map _ -> false

let uses_shared_memory k = is_local k

let input_radii k =
  let e = expr_of_op k.op in
  List.map
    (fun img ->
      match Expr.radius_of_image e img with
      | Some r -> (img, r)
      | None -> (img, 0))
    k.inputs

let pattern_to_string = function
  | Point -> "point"
  | Local r -> Printf.sprintf "local(r=%d)" r
  | Global -> "global"

let pp_pattern ppf p = Format.pp_print_string ppf (pattern_to_string p)

let pp ppf k =
  Format.fprintf ppf "@[<v2>kernel %s (%a) : %a@,%a@]" k.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_string)
    k.inputs pp_pattern (pattern k)
    (fun ppf op ->
      match op with
      | Map e -> Expr.pp ppf e
      | Reduce { init; combine; arg } ->
        Format.fprintf ppf "reduce(init=%g, op=%s) %a" init
          (match combine with
          | Expr.Add -> "+"
          | Expr.Sub -> "-"
          | Expr.Mul -> "*"
          | Expr.Div -> "/"
          | Expr.Min -> "min"
          | Expr.Max -> "max"
          | Expr.Pow -> "pow")
          Expr.pp arg)
    k.op
