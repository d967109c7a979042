module Rng = Kfuse_util.Rng
module Iset = Kfuse_util.Iset
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Border = Kfuse_image.Border
module Mask = Kfuse_image.Mask
module Digraph = Kfuse_graph.Digraph
module C_names = Kfuse_codegen.Lower_common

let pick rng arr = arr.(Rng.int rng (Array.length arr))

(* Border modes a generated tap may use.  Undefined is excluded: the
   interpreter (rightly) refuses Undefined accesses that leave the
   image, and the eval oracles run kernels over the full extent. *)
let tap_borders = [| Border.Mirror; Border.Repeat; Border.Constant 0.0; Border.Constant 1.0 |]

let named_masks =
  [| Mask.gaussian_3x3; Mask.gaussian_5x5; Mask.sobel_x; Mask.sobel_y; Mask.mean 3 |]

(* Constants and stencil weights are quarter-integers: short to unparse,
   exactly representable, and slow to overflow under a 10-deep chain of
   adds and muls. *)
let quarter rng lo hi = float_of_int (lo + Rng.int rng (hi - lo + 1)) *. 0.25

let nonzero_quarter rng =
  let rec go () =
    let w = quarter rng (-4) 4 in
    if Float.equal w 0.0 then go () else w
  in
  go ()

(* Source selection with a recency bias, so late kernels usually consume
   recent ones (long chains) but sometimes reach back (fan-out, diamonds,
   shared inputs). *)
let pick_src rng avail =
  let n = List.length avail in
  let i = if n > 3 && Rng.bool rng then n - 1 - Rng.int rng 3 else Rng.int rng n in
  List.nth avail i

(* A point expression: every tap at offset zero (Clamp border, the DSL
   default — a zero-offset border is unobservable anyway). *)
let rec point_expr rng ~params ~avail depth =
  if depth <= 0 || Rng.int rng 5 = 0 then point_leaf rng ~params ~avail
  else
    let sub () = point_expr rng ~params ~avail (depth - 1) in
    match Rng.int rng 10 with
    | 0 | 1 ->
      let a = sub () in
      Expr.(a + sub ())
    | 2 ->
      let a = sub () in
      Expr.(a - sub ())
    | 3 ->
      let a = sub () in
      Expr.(a * sub ())
    | 4 ->
      let a = sub () in
      Expr.min a (sub ())
    | 5 ->
      let a = sub () in
      Expr.max a (sub ())
    | 6 -> Expr.neg (sub ())
    | 7 -> (
      match Rng.int rng 4 with
      | 0 -> Expr.abs (sub ())
      | 1 -> Expr.sin (sub ())
      | 2 -> Expr.cos (sub ())
      | _ -> Expr.floor (sub ()))
    | 8 -> Expr.sqrt (Expr.abs (sub ()))
    | _ -> Expr.pow (sub ()) (Expr.const 2.0)

and point_leaf rng ~params ~avail =
  match Rng.int rng 4 with
  | 0 | 1 -> Expr.input (pick_src rng avail)
  | 2 -> Expr.const (quarter rng (-8) 8)
  | _ ->
    if params <> [] then Expr.param (pick rng (Array.of_list params))
    else Expr.input (pick_src rng avail)

(* A hand-rolled stencil: 2-5 distinct taps in [-2, 2]^2, at least one
   off-center, each with its own weight.  One-sided tap sets (all
   offsets in a half-plane) arise often — those are the asymmetric
   masks that stress the Eq. 9 footprint/growth computations. *)
let stencil_expr rng ~avail =
  let src = pick_src rng avail in
  let border = pick rng tap_borders in
  let n_taps = 2 + Rng.int rng 4 in
  let rec taps n acc =
    if n = 0 then acc
    else
      let dx = Rng.int rng 5 - 2 and dy = Rng.int rng 5 - 2 in
      if List.mem_assoc (dx, dy) acc then taps n acc
      else taps (n - 1) (((dx, dy), nonzero_quarter rng) :: acc)
  in
  let off = ((1 + Rng.int rng 2) * (if Rng.bool rng then 1 else -1), Rng.int rng 5 - 2) in
  let taps = taps (n_taps - 1) [ (off, nonzero_quarter rng) ] in
  List.fold_left
    (fun acc ((dx, dy), w) ->
      let b = if dx = 0 && dy = 0 then Border.Clamp else border in
      let tap = Expr.(const w * input ~border:b ~dx ~dy src) in
      match acc with None -> Some tap | Some e -> Some Expr.(e + tap))
    None taps
  |> Option.get

let body_expr rng ~params ~avail ~let_var =
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> point_expr rng ~params ~avail (2 + Rng.int rng 2)
  | 3 | 4 ->
    let border = if Rng.bool rng then Border.Clamp else pick rng tap_borders in
    Expr.conv ~border (pick rng named_masks) (pick_src rng avail)
  | 5 | 6 -> stencil_expr rng ~avail
  | 7 ->
    let sub () = point_expr rng ~params ~avail 2 in
    Expr.select Expr.Lt (sub ()) (sub ()) (sub ()) (sub ())
  | 8 ->
    (* Explicit reuse through a let: exercises CSE and Let handling in
       every downstream pass. *)
    let v = let_var in
    let value = point_expr rng ~params ~avail 2 in
    Expr.(let_ v value (var v * (var v + const (quarter rng (-4) 4))))
  | _ ->
    let a = stencil_expr rng ~avail in
    let b = point_expr rng ~params ~avail 2 in
    Expr.(a + b)

(* Costly reads: about one Map body in four reads every pixel through
   one [log] or [exp].  A stencil then repeats a transcendental at every
   tap, and a point kernel becomes a log/exp producer that min-cut may
   fuse into a stencil consumer: both reach the native backend's line
   buffer.  Only reads change, never which images a kernel reads, so the
   DAG stays the one the case's own generator drew. *)
let costly_reads rng body =
  if Rng.int rng 4 <> 0 then body
  else
    let costly =
      if Rng.bool rng then fun e -> Expr.(log (abs e + const 0.5))
      else fun e -> Expr.(exp (neg (abs e)))
    in
    if Expr.reach body = 0 then costly body
    else
      Expr.subst_inputs
        (fun ~image ~dx ~dy ~border -> costly (Expr.input ~border ~dx ~dy image))
        body

(* Names that clash with something in generated C unless every user
   name is mangled apart: C keywords, libc and math functions, the
   generator's locals and helpers, the subprocess wrapper's locals and
   the CUDA launch names. *)
let hostile_pool =
  [ "const"; "int"; "float"; "double"; "void"; "static"; "return"; "for"; "while"; "if";
    "else"; "char"; "struct"; "sizeof"; "inline"; "restrict"; "free"; "malloc"; "abort";
    "sqrt"; "sqrtf"; "fabs"; "fminf"; "fmaxf"; "powf"; "expf"; "floor"; "sin"; "cos";
    "open"; "close"; "mmap"; "width"; "height"; "x"; "y"; "i"; "out"; "acc"; "kf_malloc";
    "kf_scalar"; "kf_in"; "kf_out"; "kfuse_entry"; "main"; "npix"; "st"; "in_fd";
    "out_map"; "argc"; "argv"; "ins"; "outs"; "params"; "block"; "grid"; "read_clamp";
    "idx_mirror"; "img"; "sx1"; "ge1" ]

(* A name every persisted case must be able to carry: not a DSL keyword
   (the corpus round-trips through the DSL) and not a temporal input
   name (names alone mark a pipeline temporal). *)
let neutral name =
  let digits s = String.for_all (fun c -> c >= '0' && c <= '9') s in
  let lagged =
    String.starts_with ~prefix:"prev" name
    && digits (String.sub name 4 (String.length name - 4))
  in
  (not (List.mem name Kfuse_dsl.Unparse.reserved)) && name <> "frame" && not lagged

(* Where names come from: [None] keeps the plain [in%d]/[p%d]/[k%d]
   scheme; [Some rng] draws most names from the hostile pool and from
   lookalikes of the case's other names — the C names they become, and
   [<k>_halo] beside a kernel [<k>].  [used] keeps them distinct. *)
type namer = { hostile : Rng.t option; mutable used : string list }

let name_as namer ~lookalikes plain =
  let name =
    match namer.hostile with
    | Some rng when Rng.int rng 4 > 0 ->
      let cand = pick rng (Array.of_list (hostile_pool @ lookalikes)) in
      if neutral cand && not (List.mem cand namer.used) then cand else plain
    | Some _ | None -> plain
  in
  namer.used <- name :: namer.used;
  name

let case ?(max_kernels = 10) ?(costly = false) ~seed index =
  if max_kernels < 2 then invalid_arg "Gen.case: max_kernels must be >= 2";
  let case_seed = (seed * 1_000_003) lxor index in
  let rng = Rng.create case_seed in
  (* Names draw from their own generator, split off the case seed, so
     the DAG of every [(seed, index)] does not depend on them. *)
  let namer =
    let names = Rng.split (Rng.create case_seed) in
    { hostile = (if Rng.int names 3 = 0 then Some names else None); used = [] }
  in
  (* Costly reads draw from a third generator, for the same reason. *)
  let costly = if costly then Some (Rng.create (case_seed lxor 0x2545f491)) else None in
  let pipeline_name = Printf.sprintf "fuzz_%d_%d" seed index in
  let c_names kinds names =
    List.concat_map (fun n -> List.map (fun k -> C_names.ident k n) kinds) names
  in
  let run_lookalike = c_names [ C_names.Runner ] [ pipeline_name ] in
  let width = 8 + Rng.int rng 9 in
  let height = 6 + Rng.int rng 8 in
  (* ~1 in 4 cases is a temporal stream: inputs named by the streaming
     convention ("frame" current, "prev"/"prevN" lagged — see
     {!Kfuse_ir.Temporal}).  Names are all that distinguishes a temporal
     pipeline, so every other oracle treats them as plain inputs; the
     stream oracle windows them across a multi-frame push sequence. *)
  let temporal_depth = if Rng.int rng 4 = 0 then 1 + Rng.int rng 2 else 0 in
  let inputs =
    if temporal_depth > 0 then
      "frame"
      :: List.init temporal_depth (fun i ->
             if i = 0 then "prev" else Printf.sprintf "prev%d" (i + 1))
    else
      let n_inputs = 1 + Rng.int rng 3 in
      List.init n_inputs (fun i ->
          name_as namer ~lookalikes:run_lookalike (Printf.sprintf "in%d" i))
  in
  let params =
    List.init (Rng.int rng 3) (fun i ->
        let lookalikes = run_lookalike @ c_names [ C_names.Image ] inputs in
        (name_as namer ~lookalikes (Printf.sprintf "p%d" i), quarter rng 1 8))
  in
  let let_var = name_as namer ~lookalikes:[] "t0" in
  let param_names = List.map fst params in
  let n = 2 + Rng.int rng (max_kernels - 1) in
  let with_reduce = n >= 3 && Rng.int rng 5 = 0 in
  let rec build i avail acc =
    if i >= n then List.rev acc
    else
      let name =
        let earlier = List.map (fun (k : Kernel.t) -> k.Kernel.name) acc in
        let lookalikes =
          run_lookalike
          @ c_names [ C_names.Image ] inputs
          @ c_names [ C_names.Param ] param_names
          @ c_names C_names.[ Kernel_fn; Halo_fn ] earlier
          @ List.map (fun k -> k ^ "_halo") earlier
        in
        name_as namer ~lookalikes (Printf.sprintf "k%d" i)
      in
      let k =
        if with_reduce && i = n - 1 then begin
          (* A global reduction sink.  The seed must be the DSL default
             for its operator so the corpus can persist the pipeline. *)
          let arg = point_expr rng ~params:param_names ~avail (1 + Rng.int rng 2) in
          let arg =
            if Expr.images arg = [] then Expr.(arg + input (pick_src rng avail)) else arg
          in
          let init, combine =
            match Rng.int rng 3 with
            | 0 -> (0.0, Expr.Add)
            | 1 -> (Float.infinity, Expr.Min)
            | _ -> (Float.neg_infinity, Expr.Max)
          in
          Kernel.reduce ~name ~inputs:(Expr.images arg) ~init ~combine arg
        end
        else begin
          let body = body_expr rng ~params:param_names ~avail ~let_var in
          let body =
            if Expr.images body = [] then Expr.(body + input (pick_src rng avail))
            else body
          in
          let body = match costly with Some c -> costly_reads c body | None -> body in
          Kernel.map ~name ~inputs:(Expr.images body) body
        end
      in
      build (i + 1) (avail @ [ name ]) (k :: acc)
  in
  let kernels = build 0 inputs [] in
  Pipeline.create ~name:pipeline_name ~width ~height ~params ~inputs kernels

(* ---- derived features (for the coverage summary) ---- *)

type features = {
  kernels : int;
  inputs : int;
  conv : bool;
  asymmetric : bool;
  select : bool;
  let_reuse : bool;
  reduce : bool;
  param : bool;
  fanout : bool;
  diamond : bool;
  border_kinds : int;
  temporal : bool;
  line_buffer : bool;
}

let rec iter_expr f e =
  f e;
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Input _ | Expr.Var _ -> ()
  | Expr.Let { value; body; _ } ->
    iter_expr f value;
    iter_expr f body
  | Expr.Unop (_, a) -> iter_expr f a
  | Expr.Binop (_, a, b) ->
    iter_expr f a;
    iter_expr f b
  | Expr.Select { lhs; rhs; if_true; if_false; _ } ->
    List.iter (iter_expr f) [ lhs; rhs; if_true; if_false ]
  | Expr.Shift { body; _ } -> iter_expr f body

let kernel_exprs (k : Kernel.t) =
  match k.Kernel.op with Kernel.Map e -> [ e ] | Kernel.Reduce { arg; _ } -> [ arg ]

(* A kernel reads [img] asymmetrically when its tap set on [img] is not
   its own negation — the case where the Eq. 9 grown-mask computation
   must not assume a centered square. *)
let asymmetric_taps (k : Kernel.t) =
  List.exists
    (fun e ->
      let taps = Expr.accesses e in
      let by_img = Hashtbl.create 4 in
      List.iter
        (fun (img, dx, dy) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_img img) in
          Hashtbl.replace by_img img ((dx, dy) :: cur))
        taps;
      Hashtbl.fold
        (fun _ offs acc ->
          acc
          || (List.exists (fun (dx, dy) -> dx <> 0 || dy <> 0) offs
             && List.exists (fun (dx, dy) -> not (List.mem (-dx, -dy) offs)) offs))
        by_img false)
    (kernel_exprs k)

(* Dense odd-square mask: every tap of a (2r+1)^2 window present, all on
   one image — the shape [Expr.conv] produces for named masks (zero
   coefficients excepted, so >= 5 window taps is the pragmatic test). *)
let conv_like (k : Kernel.t) =
  Kernel.is_local k
  && List.exists
       (fun e ->
         List.length
           (List.filter (fun (_, dx, dy) -> dx <> 0 || dy <> 0) (Expr.accesses e))
         >= 5)
       (kernel_exprs k)

let has_diamond p =
  let g = Pipeline.dag p in
  let n = Pipeline.num_kernels p in
  let exception Found in
  try
    for src = 0 to n - 1 do
      (* Path counts from [src], capped at 2; kernels are stored in
         topological order so one ascending sweep suffices. *)
      let count = Array.make n 0 in
      count.(src) <- 1;
      for j = src + 1 to n - 1 do
        let c =
          Iset.fold (fun u acc -> acc + count.(u)) (Digraph.preds g j) 0
        in
        count.(j) <- min c 2;
        if count.(j) >= 2 then raise Found
      done
    done;
    false
  with Found -> true

let features (p : Pipeline.t) =
  let ks = Array.to_list p.Pipeline.kernels in
  let exists_node pred =
    List.exists
      (fun k ->
        List.exists
          (fun e ->
            let found = ref false in
            iter_expr (fun n -> if pred n then found := true) e;
            !found)
          (kernel_exprs k))
      ks
  in
  let borders = Hashtbl.create 4 in
  List.iter
    (fun k ->
      List.iter
        (iter_expr (function
          | Expr.Input { border; _ } -> Hashtbl.replace borders border ()
          | _ -> ()))
        (kernel_exprs k))
    ks;
  {
    kernels = Pipeline.num_kernels p;
    inputs = List.length p.Pipeline.inputs;
    conv = List.exists conv_like ks;
    asymmetric = List.exists asymmetric_taps ks;
    select = exists_node (function Expr.Select _ -> true | _ -> false);
    let_reuse = exists_node (function Expr.Let _ -> true | _ -> false);
    reduce = List.exists Kernel.is_global ks;
    param = exists_node (function Expr.Param _ -> true | _ -> false);
    fanout =
      List.exists
        (fun i -> Iset.cardinal (Pipeline.consumers p i) >= 2)
        (List.init (Pipeline.num_kernels p) Fun.id);
    diamond = has_diamond p;
    border_kinds = Hashtbl.length borders;
    temporal = (Kfuse_ir.Temporal.analyze p).Kfuse_ir.Temporal.temporal <> [];
    line_buffer =
      List.exists
        (fun (k : Kernel.t) ->
          match k.Kernel.op with
          | Kernel.Map body -> Kfuse_codegen.Line_buffer.(hoists (analyse body)) <> []
          | Kernel.Reduce _ -> false)
        ks;
  }

let feature_flags f =
  [
    ("conv", f.conv);
    ("asymmetric-mask", f.asymmetric);
    ("select", f.select);
    ("let-reuse", f.let_reuse);
    ("reduce-sink", f.reduce);
    ("param", f.param);
    ("fan-out", f.fanout);
    ("diamond", f.diamond);
    ("multi-border", f.border_kinds >= 2);
    ("temporal", f.temporal);
    ("line-buffer", f.line_buffer);
  ]
