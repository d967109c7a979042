module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Border = Kfuse_image.Border
open Cuda_ast

(* Generated-C names.  Every user name reaches the C as [tag ^ escape
   name ^ suffix]: the escape keeps [A-Za-z0-9], doubles ['_'] and
   writes any other byte as ['_'] plus two lowercase hex digits.  That
   code is prefix-free, so the escape is injective and can never end in
   ["_halo"] ('h' is neither '_' nor hex).  The tags, with that suffix,
   tell the kinds apart, and no name the generator spells itself carries
   one. *)
type kind = Image | Param | Kernel_fn | Halo_fn | Runner | Let_temp of int

let escape name =
  let b = Buffer.create (String.length name + 8) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char b c
      | '_' -> Buffer.add_string b "__"
      | c -> Printf.bprintf b "_%02x" (Char.code c))
    name;
  Buffer.contents b

let mangle kind name =
  let e = escape name in
  match kind with
  | Image -> "img_" ^ e
  | Param -> "p_" ^ e
  | Kernel_fn -> "k_" ^ e
  | Halo_fn -> "k_" ^ e ^ "_halo"
  | Runner -> "run_" ^ e
  | Let_temp n -> Printf.sprintf "r%d_%s" n e

type ctx = { mutable stmts : stmt list; mutable counter : int }

let create_ctx () = { stmts = []; counter = 0 }
let emit ctx s = ctx.stmts <- s :: ctx.stmts

let next ctx =
  ctx.counter <- ctx.counter + 1;
  ctx.counter

let fresh ctx prefix = Printf.sprintf "%s%d" prefix (next ctx)

let take_stmts ctx =
  let s = List.rev ctx.stmts in
  ctx.stmts <- [];
  s

let read_fn = function
  | Border.Clamp -> "read_clamp"
  | Border.Mirror -> "read_mirror"
  | Border.Repeat -> "read_repeat"
  | Border.Constant _ -> "read_constant"
  | Border.Undefined -> "read_raw"

let idx_fn = function
  | Border.Clamp -> Some "idx_clamp"
  | Border.Mirror -> Some "idx_mirror"
  | Border.Repeat -> Some "idx_repeat"
  | Border.Constant _ | Border.Undefined -> None

(* Scalar precision of lowered code: buffer element type, per-pixel
   arithmetic, literals and temporaries all follow it.  [Single] matches
   the CUDA the paper's toolchain generates; [Double] matches the
   float64 reference interpreter bit-for-bit in every operation and
   every inter-kernel store, so an execution backend that widens its
   float32 inputs once at the boundary diverges from the interpreter
   only by that initial input rounding and the final output store. *)
type precision = Single | Double

(* In double mode the [f]-suffixed math.h entry points drop their
   suffix; C's usual conversions then keep the whole expression chain in
   double (float loads promote, the store narrows). *)
let fn_for prec single = match prec with Single -> single | Double -> Filename.chop_suffix single "f"

let unop_c prec = function
  | Expr.Neg -> `Prefix "-"
  | Expr.Abs -> `Fn (fn_for prec "fabsf")
  | Expr.Sqrt -> `Fn (fn_for prec "sqrtf")
  | Expr.Exp -> `Fn (fn_for prec "expf")
  | Expr.Log -> `Fn (fn_for prec "logf")
  | Expr.Sin -> `Fn (fn_for prec "sinf")
  | Expr.Cos -> `Fn (fn_for prec "cosf")
  | Expr.Floor -> `Fn (fn_for prec "floorf")

let binop_c prec = function
  | Expr.Add -> `Infix "+"
  | Expr.Sub -> `Infix "-"
  | Expr.Mul -> `Infix "*"
  | Expr.Div -> `Infix "/"
  | Expr.Min -> `Fn "kf_min"
  | Expr.Max -> `Fn "kf_max"
  | Expr.Pow -> `Fn (fn_for prec "powf")

(* The math calls a compiler cannot vectorize at the generated C's
   flags: no SIMD variants without -ffast-math, and [floor] needs
   SSE4.1.  Square root, absolute value and the min/max helpers
   vectorize. *)
let scalar_calls =
  List.concat_map (fun f -> [ f; f ^ "f" ]) [ "exp"; "log"; "sin"; "cos"; "floor"; "pow" ]

let is_scalar_call = function Call (f, _) -> List.mem f scalar_calls | _ -> false

let scalar_lit prec = match prec with Single -> float_lit | Double -> double_lit
let scalar_ctype prec = match prec with Single -> "float" | Double -> "double"

let cmp_c = function Expr.Lt -> "<" | Expr.Le -> "<=" | Expr.Eq -> "=="

let width_e = ident "width"
let height_e = ident "height"

(* Where an expression is evaluated.  [Resolved] coordinates go through
   border handling and index exchange; [bounded] records that they are
   known inside the iteration space.  [Interior] is the base coordinate
   [(cx, cy)] plus a constant offset, for pixels at least the kernel's
   reach from every border: every coordinate the body evaluates is then
   inside the image, so reads are raw loads and exchanges the identity. *)
type pos =
  | Resolved of { cx : expr; cy : expr; bounded : bool }
  | Interior of { cx : expr; cy : expr; ox : int; oy : int }

let plus e d = if d = 0 then e else e +: int_lit d

let rec lower_at ~prec ~tap ~bind_calls ctx ~vars pos e =
  let lower ctx ~vars pos e = lower_at ~prec ~tap ~bind_calls ctx ~vars pos e in
  (* With [bind_calls], a call no compiler vectorizes becomes its own
     declaration [kf_c<n>], so a row can run it in a loop of its own. *)
  let bind c =
    if bind_calls && is_scalar_call c then begin
      let name = fresh ctx "kf_c" in
      emit ctx (Decl { ctype = "const " ^ scalar_ctype prec; name; init = Some c });
      ident name
    end
    else c
  in
  let tapped = match pos with Interior { ox; oy; _ } -> tap e ~ox ~oy | Resolved _ -> None in
  match tapped with
  | Some c -> c
  | None -> (
  match e with
  | Expr.Const c -> scalar_lit prec c
  | Expr.Param p -> ident (mangle Param p)
  | Expr.Var v -> (
    match List.assoc_opt v vars with
    | Some c -> ident c
    | None -> invalid_arg (Printf.sprintf "Lower: unbound variable %%%s" v))
  | Expr.Let { var; value; body } ->
    let ce = lower ctx ~vars pos value in
    let name = mangle (Let_temp (next ctx)) var in
    emit ctx (Decl { ctype = "const " ^ scalar_ctype prec; name; init = Some ce });
    lower ctx ~vars:((var, name) :: vars) pos body
  | Expr.Input { image; dx; dy; border } -> (
    let img = ident (mangle Image image) in
    match pos with
    | Interior { cx; cy; ox; oy } ->
      index img ((plus cy (oy + dy) *: width_e) +: plus cx (ox + dx))
    | Resolved { cx; cy; bounded } ->
      if bounded && dx = 0 && dy = 0 then
        (* The coordinates are known in-bounds (iteration variables, or
           already remapped by an index exchange), so every border mode
           degenerates to the raw load — skip the per-read re-clamp on
           the kernel's hottest path. *)
        index img ((cy *: width_e) +: cx)
      else
        let base = [ img; plus cx dx; plus cy dy; width_e; height_e ] in
        let args =
          match border with
          | Border.Constant c -> base @ [ scalar_lit prec c ]
          | Border.Clamp | Border.Mirror | Border.Repeat | Border.Undefined -> base
        in
        call (read_fn border) args)
  | Expr.Unop (op, a) -> (
    let ca = lower ctx ~vars pos a in
    match unop_c prec op with `Prefix s -> Unop (s, ca) | `Fn f -> bind (call f [ ca ]))
  | Expr.Binop (op, a, b) -> (
    let ca = lower ctx ~vars pos a in
    let cb = lower ctx ~vars pos b in
    match binop_c prec op with `Infix s -> Binop (s, ca, cb) | `Fn f -> bind (call f [ ca; cb ]))
  | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
    let cl = lower ctx ~vars pos lhs in
    let cr = lower ctx ~vars pos rhs in
    let ct = lower ctx ~vars pos if_true in
    let cf = lower ctx ~vars pos if_false in
    Ternary (Binop (cmp_c cmp, cl, cr), ct, cf)
  | Expr.Shift { dx; dy; exchange; body } -> (
    match pos with
    | Interior i ->
      (* Every exchange, the Constant guard included, is the identity. *)
      lower ctx ~vars (Interior { i with ox = i.ox + dx; oy = i.oy + dy }) body
    | Resolved { cx; cy; bounded } -> (
      let sx = cx +: int_lit dx and sy = cy +: int_lit dy in
      let resolved ~bounded nx ny = Resolved { cx = ident nx; cy = ident ny; bounded } in
      match exchange with
      | None | Some Border.Undefined ->
        let nx = fresh ctx "sx" and ny = fresh ctx "sy" in
        emit ctx (Decl { ctype = "const int"; name = nx; init = Some sx });
        emit ctx (Decl { ctype = "const int"; name = ny; init = Some sy });
        (* The unexchanged shift may leave the iteration space: reads at
           these coordinates keep their border handling. *)
        lower ctx ~vars (resolved ~bounded:(bounded && dx = 0 && dy = 0) nx ny) body
      | Some ((Border.Clamp | Border.Mirror | Border.Repeat) as mode) ->
        (* Index exchange: remap the shifted coordinate into the iteration
           space before evaluating the inlined producer. *)
        let f = Option.get (idx_fn mode) in
        let nx = fresh ctx "ex" and ny = fresh ctx "ey" in
        emit ctx
          (Decl { ctype = "const int"; name = nx; init = Some (call f [ sx; width_e ]) });
        emit ctx
          (Decl { ctype = "const int"; name = ny; init = Some (call f [ sy; height_e ]) });
        (* The exchange remapped both coordinates into the iteration
           space, so the inlined producer's central reads are bounded. *)
        lower ctx ~vars (resolved ~bounded:true nx ny) body
      | Some (Border.Constant c) ->
        (* The exchanged intermediate pixel is the padding constant outside
           the iteration space; guard the inlined producer. *)
        let nx = fresh ctx "gx" and ny = fresh ctx "gy" in
        let result = fresh ctx "ge" in
        emit ctx (Decl { ctype = "const int"; name = nx; init = Some sx });
        emit ctx (Decl { ctype = "const int"; name = ny; init = Some sy });
        emit ctx (Decl { ctype = scalar_ctype prec; name = result; init = None });
        let saved = ctx.stmts in
        ctx.stmts <- [];
        (* The guard below only evaluates the producer inside the
           iteration space, so its central reads are bounded. *)
        let inner = lower ctx ~vars (resolved ~bounded:true nx ny) body in
        let inner_stmts = List.rev (Assign (ident result, inner) :: ctx.stmts) in
        ctx.stmts <- saved;
        let inside =
          Binop (">=", ident nx, int_lit 0)
          &&: (ident nx <: width_e)
          &&: Binop (">=", ident ny, int_lit 0)
          &&: (ident ny <: height_e)
        in
        emit ctx
          (If
             {
               cond = inside;
               then_ = inner_stmts;
               else_ = [ Assign (ident result, scalar_lit prec c) ];
             });
        ident result)))

let no_tap _ ~ox:_ ~oy:_ = None

let lower ?(prec = Single) ?(bounded = true) ctx ~vars ~cx ~cy e =
  lower_at ~prec ~tap:no_tap ~bind_calls:false ctx ~vars (Resolved { cx; cy; bounded }) e

let lower_interior ?(prec = Single) ?(tap = no_tap) ctx ~vars ~cx ~cy e =
  lower_at ~prec ~tap ~bind_calls:true ctx ~vars (Interior { cx; cy; ox = 0; oy = 0 }) e

type features = {
  read_modes : Border.mode list;
  exchange_modes : Border.mode list;
  atomics : [ `Min | `Max ] list;
  min_max : [ `Min | `Max ] list;
}

let mode_key = function
  | Border.Clamp -> 0
  | Border.Mirror -> 1
  | Border.Repeat -> 2
  | Border.Constant _ -> 3
  | Border.Undefined -> 4

let canonical_mode = function
  | Border.Constant _ -> Border.Constant 0.0
  | (Border.Clamp | Border.Mirror | Border.Repeat | Border.Undefined) as m -> m

let used_features (p : Pipeline.t) =
  let modes = ref [] in
  let exchanges = ref [] in
  let atomics = ref [] in
  let add_mode lst m =
    let m = canonical_mode m in
    if not (List.exists (fun x -> mode_key x = mode_key m) !lst) then lst := m :: !lst
  in
  let min_max = ref [] in
  let add lst a = if not (List.mem a !lst) then lst := a :: !lst in
  let add_atomic a =
    add atomics a;
    add min_max a
  in
  let add_binop = function
    | Expr.Min -> add min_max `Min
    | Expr.Max -> add min_max `Max
    | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Pow -> ()
  in
  Array.iter
    (fun (k : Kernel.t) ->
      let body =
        match k.Kernel.op with
        | Kernel.Map e -> e
        | Kernel.Reduce { combine; arg; _ } ->
          (match combine with
          | Expr.Min -> add_atomic `Min
          | Expr.Max -> add_atomic `Max
          | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Pow -> ());
          arg
      in
      let rec walk e =
        match e with
        | Expr.Input { border; _ } -> add_mode modes border
        | Expr.Shift { exchange; body; _ } ->
          (match exchange with
          | Some ((Border.Clamp | Border.Mirror | Border.Repeat) as m) ->
            add_mode exchanges m
          | Some (Border.Constant _) | Some Border.Undefined | None -> ());
          walk body
        | Expr.Let { value; body; _ } ->
          walk value;
          walk body
        | Expr.Unop (_, a) -> walk a
        | Expr.Binop (op, a, b) ->
          add_binop op;
          walk a;
          walk b
        | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
          List.iter walk [ lhs; rhs; if_true; if_false ]
        | Expr.Const _ | Expr.Param _ | Expr.Var _ -> ()
      in
      walk body)
    p.Pipeline.kernels;
  {
    read_modes = List.sort (fun a b -> compare (mode_key a) (mode_key b)) !modes;
    exchange_modes = List.sort (fun a b -> compare (mode_key a) (mode_key b)) !exchanges;
    atomics = List.sort compare !atomics;
    min_max = List.sort compare !min_max;
  }

let idx_helper_src ~q = function
  | "idx_clamp" ->
    Printf.sprintf
      "%s int idx_clamp(int i, int n) {\n  return i < 0 ? 0 : (i >= n ? n - 1 : i);\n}" q
  | "idx_mirror" ->
    Printf.sprintf
      "%s int idx_mirror(int i, int n) {\n\
      \  if (n == 1) return 0;\n\
      \  int period = 2 * n - 2;\n\
      \  int m = ((i %% period) + period) %% period;\n\
      \  return m < n ? m : period - m;\n\
       }"
      q
  | "idx_repeat" ->
    Printf.sprintf "%s int idx_repeat(int i, int n) {\n  return ((i %% n) + n) %% n;\n}" q
  | f -> invalid_arg ("unknown helper " ^ f)

let read_helper_src ~q ~s mode =
  match mode with
  | Border.Clamp | Border.Mirror | Border.Repeat ->
    let f = Option.get (idx_fn mode) in
    Printf.sprintf
      "%s %s %s(const %s* img, int x, int y, int w, int h) {\n\
      \  return img[%s(y, h) * w + %s(x, w)];\n\
       }"
      q s (read_fn mode) s f f
  | Border.Constant _ ->
    Printf.sprintf
      "%s %s read_constant(const %s* img, int x, int y, int w, int h, %s c) {\n\
      \  return (x < 0 || x >= w || y < 0 || y >= h) ? c : img[y * w + x];\n\
       }"
      q s s s
  | Border.Undefined ->
    Printf.sprintf
      "%s %s read_raw(const %s* img, int x, int y, int w, int h) {\n\
      \  (void)h;\n\
      \  return img[y * w + x];\n\
       }"
      q s s

(* OCaml's [Float.min] and [Float.max], which the interpreter uses,
   spelled as selects so that a loop calling them vectorizes: [-0.]
   orders below [+0.], and a NaN operand is the result (of two NaNs,
   [y] where only [x]'s sign bit is set, else [x]).  libm's
   [fmin]/[fmax] return the other operand for one NaN and leave the
   sign of a zero result open.  [copysign(1, v) < 0] reads the sign bit
   where [signbit] would not vectorize. *)
let min_max_helper_src ~q ~prec op =
  let s = scalar_ctype prec and cs = fn_for prec "copysignf" in
  let one = Format.asprintf "%a" Emit.expr (scalar_lit prec 1.0)
  and zero = Format.asprintf "%a" Emit.expr (scalar_lit prec 0.0) in
  let name, pick =
    match op with
    | `Min -> ("kf_min", "(y != y ? y : x) : (x != x ? x : y)")
    | `Max -> ("kf_max", "(x != x ? x : y) : (y != y ? y : x)")
  in
  Printf.sprintf
    "%s %s %s(%s x, %s y) {\n\
    \  const int c = y > x || (%s(%s, y) > %s && %s(%s, x) < %s);\n\
    \  return c ? %s;\n\
     }"
    q s name s s cs one zero cs one zero pick

let helper_sources ~device_qualifier ?(prec = Single) features =
  let q = device_qualifier in
  let s = scalar_ctype prec in
  let idx_needed =
    List.sort_uniq compare
      (List.filter_map idx_fn features.read_modes
      @ List.filter_map idx_fn features.exchange_modes)
  in
  List.map (idx_helper_src ~q) idx_needed
  @ List.map (read_helper_src ~q ~s) features.read_modes
  @ List.map (min_max_helper_src ~q ~prec) features.min_max

let atomic_helper_src name op =
  Printf.sprintf
    "__device__ float %s(float* addr, float value) {\n\
    \  int* iaddr = (int*)addr;\n\
    \  int old = *iaddr, assumed;\n\
    \  do {\n\
    \    assumed = old;\n\
    \    old = atomicCAS(iaddr, assumed, __float_as_int(%s(value, \
     __int_as_float(assumed))));\n\
    \  } while (assumed != old);\n\
    \  return __int_as_float(old);\n\
     }"
    name op

let atomic_helper_sources features =
  List.map
    (function
      | `Min -> atomic_helper_src "atomicMinFloat" "kf_min"
      | `Max -> atomic_helper_src "atomicMaxFloat" "kf_max")
    features.atomics

let body_expr (k : Kernel.t) =
  match k.Kernel.op with Kernel.Map e -> e | Kernel.Reduce { arg; _ } -> arg

let kernel_params ?(prec = Single) (p : Pipeline.t) (k : Kernel.t) =
  let s = scalar_ctype prec in
  let used_params = Expr.params (body_expr k) in
  [ { ctype = s ^ "*"; name = mangle Image k.Kernel.name } ]
  @ List.map (fun i -> { ctype = "const " ^ s ^ "*"; name = mangle Image i }) k.Kernel.inputs
  @ [ { ctype = "const int"; name = "width" }; { ctype = "const int"; name = "height" } ]
  @ List.filter_map
      (fun (name, _) ->
        if List.mem name used_params then Some { ctype = "const " ^ s; name = mangle Param name }
        else None)
      p.Pipeline.params

(* Exported as [ident]; inside this module that name is Cuda_ast's. *)
let ident = mangle
