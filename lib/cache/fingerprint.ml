module Iset = Kfuse_util.Iset
module Digraph = Kfuse_graph.Digraph
module Expr = Kfuse_ir.Expr
module Kernel = Kfuse_ir.Kernel
module Pipeline = Kfuse_ir.Pipeline
module Border = Kfuse_image.Border
module Config = Kfuse_fusion.Config
module Driver = Kfuse_fusion.Driver

let digest s = Digest.to_hex (Digest.string s)

(* ---- canonical text rendering ----

   A compact s-expression-ish rendering with three properties: total (no
   pipeline is unrepresentable), injective per constructor (every node
   kind has a distinct tag and explicit delimiters), and float-exact
   (%h renders the bit pattern, so 0.1 +. 0.2 and 0.3 differ). *)

let unop_tag = function
  | Expr.Neg -> "neg"
  | Expr.Abs -> "abs"
  | Expr.Sqrt -> "sqrt"
  | Expr.Exp -> "exp"
  | Expr.Log -> "log"
  | Expr.Sin -> "sin"
  | Expr.Cos -> "cos"
  | Expr.Floor -> "floor"

let binop_tag = function
  | Expr.Add -> "add"
  | Expr.Sub -> "sub"
  | Expr.Mul -> "mul"
  | Expr.Div -> "div"
  | Expr.Min -> "min"
  | Expr.Max -> "max"
  | Expr.Pow -> "pow"

let cmp_tag = function Expr.Lt -> "lt" | Expr.Le -> "le" | Expr.Eq -> "eq"

let border_tag = function
  | Border.Clamp -> "clamp"
  | Border.Mirror -> "mirror"
  | Border.Repeat -> "repeat"
  | Border.Constant f -> Printf.sprintf "const:%h" f
  | Border.Undefined -> "undef"

(* [ren] maps image names to reference strings; identifiers are length-
   prefixed so a name can never masquerade as surrounding syntax. *)
let quote buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

(* [alpha] renders let-bound variables as de Bruijn levels, making the
   output invariant under renaming of binders.  The structural paths use
   it because pass-introduced binder names (e.g. CSE temporaries) can
   depend on the kernel names in scope; the exact path keeps names. *)
let rec render_expr buf ~ren ?(alpha = false) ?(env = []) e =
  let b = Buffer.add_string buf in
  let recur = render_expr buf ~ren ~alpha in
  match e with
  | Expr.Const f -> b (Printf.sprintf "(c %h)" f)
  | Expr.Param p ->
    b "(p ";
    quote buf p;
    b ")"
  | Expr.Input { image; dx; dy; border } ->
    b "(in ";
    quote buf (ren image);
    b (Printf.sprintf " %d %d %s)" dx dy (border_tag border))
  | Expr.Var v -> (
    match (alpha, List.assoc_opt v env) with
    | true, Some level -> b (Printf.sprintf "(v %d)" level)
    | _ ->
      b "(v ";
      quote buf v;
      b ")")
  | Expr.Let { var; value; body } ->
    b "(let ";
    if alpha then b (string_of_int (List.length env))
    else quote buf var;
    b " ";
    recur ~env value;
    b " ";
    recur ~env:((var, List.length env) :: env) body;
    b ")"
  | Expr.Unop (op, a) ->
    b "(u ";
    b (unop_tag op);
    b " ";
    recur ~env a;
    b ")"
  | Expr.Binop (op, a, c) ->
    b "(b ";
    b (binop_tag op);
    b " ";
    recur ~env a;
    b " ";
    recur ~env c;
    b ")"
  | Expr.Select { cmp; lhs; rhs; if_true; if_false } ->
    b "(sel ";
    b (cmp_tag cmp);
    List.iter
      (fun e ->
        b " ";
        recur ~env e)
      [ lhs; rhs; if_true; if_false ];
    b ")"
  | Expr.Shift { dx; dy; exchange; body } ->
    b (Printf.sprintf "(sh %d %d " dx dy);
    b (match exchange with None -> "-" | Some m -> border_tag m);
    b " ";
    recur ~env body;
    b ")"

let render_op buf ~ren ?(alpha = false) (op : Kernel.op) =
  match op with
  | Kernel.Map e ->
    Buffer.add_string buf "(map ";
    render_expr buf ~ren ~alpha e;
    Buffer.add_string buf ")"
  | Kernel.Reduce { init; combine; arg } ->
    Buffer.add_string buf (Printf.sprintf "(red %h %s " init (binop_tag combine));
    render_expr buf ~ren ~alpha arg;
    Buffer.add_string buf ")"

(* [sort_inputs] canonicalizes a kernel's declared input list: the body
   is the semantic reference order, the declaration list is a set. *)
let render_kernel buf ~ren ?(sort_inputs = false) ?(alpha = false) (k : Kernel.t) =
  Buffer.add_string buf "(k ";
  let inputs = List.map ren k.Kernel.inputs in
  let inputs = if sort_inputs then List.sort String.compare inputs else inputs in
  List.iter
    (fun i ->
      quote buf i;
      Buffer.add_char buf ' ')
    inputs;
  render_op buf ~ren ~alpha k.Kernel.op;
  Buffer.add_string buf ")"

let render_params buf ~sorted params =
  let params =
    if sorted then List.sort (fun (a, _) (b, _) -> String.compare a b) params else params
  in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf "(par ";
      quote buf name;
      Buffer.add_string buf (Printf.sprintf " %h)" v))
    params

(* [sort_inputs] canonicalizes the pipeline's input declaration list:
   inputs are bound by name, so their declaration order is irrelevant to
   every consumer of the fingerprint (the driver, the benefit model, the
   interpreter).  The exact fingerprint keeps declaration order; the
   structural one sorts, so permuting the [inputs] clause cannot change
   a plan's address. *)
let render_header buf ~with_name ?(sort_inputs = false) (p : Pipeline.t) =
  if with_name then begin
    Buffer.add_string buf "(pipe ";
    quote buf p.Pipeline.name;
    Buffer.add_string buf ")"
  end;
  Buffer.add_string buf
    (Printf.sprintf "(is %d %d %d)" p.Pipeline.width p.Pipeline.height p.Pipeline.channels);
  let inputs =
    if sort_inputs then List.sort String.compare p.Pipeline.inputs else p.Pipeline.inputs
  in
  List.iter
    (fun i ->
      Buffer.add_string buf "(inp ";
      quote buf i;
      Buffer.add_string buf ")")
    inputs

(* ---- exact fingerprint ---- *)

let kernel_def (k : Kernel.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "(def ";
  quote buf k.Kernel.name;
  Buffer.add_char buf ' ';
  render_kernel buf ~ren:Fun.id k;
  Buffer.add_char buf ')';
  Buffer.contents buf

let exact ?(def = kernel_def) (p : Pipeline.t) =
  let buf = Buffer.create 1024 in
  render_header buf ~with_name:true p;
  render_params buf ~sorted:false p.Pipeline.params;
  Array.iter (fun k -> Buffer.add_string buf (def k)) p.Pipeline.kernels;
  digest (Buffer.contents buf)

(* ---- canonical (structural) fingerprint ----

   Kernel names are replaced by content references: each kernel is hashed
   with every image read rendered as either the external input's own name
   or the producing kernel's content hash.  Byte-identical twin kernels
   are disambiguated by a per-hash counter in stored (topological) order.
   Canonical names are then assigned by sorted (hash, twin-index) rank,
   which no user identifier can collide with (the prefix is a control
   character the DSL lexer cannot produce). *)

let content_ref (h, t) = h ^ "." ^ string_of_int t

let kernel_digest (k : Kernel.t) refs =
  let refs = List.combine k.Kernel.inputs refs in
  let buf = Buffer.create 256 in
  render_kernel buf ~ren:(fun img -> List.assoc img refs) ~sort_inputs:true ~alpha:true k;
  digest (Buffer.contents buf)

let kernel_hashes ?(digest = kernel_digest) (p : Pipeline.t) =
  let n = Pipeline.num_kernels p in
  let index = Hashtbl.create (max 16 (2 * n)) in
  Array.iteri (fun i (k : Kernel.t) -> Hashtbl.replace index k.Kernel.name i) p.Pipeline.kernels;
  let hashes = Array.make n ("", 0) in
  let cref = Array.make n "" in
  let counts = Hashtbl.create (max 16 n) in
  for i = 0 to n - 1 do
    let k = Pipeline.kernel p i in
    let refs =
      List.map
        (fun img ->
          match Hashtbl.find_opt index img with Some j -> cref.(j) | None -> "$" ^ img)
        k.Kernel.inputs
    in
    let h = digest k refs in
    let c = Option.value ~default:0 (Hashtbl.find_opt counts h) in
    Hashtbl.replace counts h (c + 1);
    hashes.(i) <- (h, c);
    cref.(i) <- "#" ^ content_ref (h, c)
  done;
  hashes

let canonical_names (p : Pipeline.t) =
  let hashes = kernel_hashes p in
  let n = Array.length hashes in
  let ranked =
    List.sort compare (List.init n (fun i -> (fst hashes.(i), snd hashes.(i), i)))
  in
  let names = Array.make n "" in
  List.iteri (fun rank (_, _, i) -> names.(i) <- Printf.sprintf "\001%d" rank) ranked;
  names

(* Rebuild [p] under canonical kernel names and sorted params so the
   normalization passes see a name-independent pipeline. *)
let rename_pipeline (p : Pipeline.t) names =
  let ren img =
    match Pipeline.producer p img with Some j -> names.(j) | None -> img
  in
  let kernels =
    Array.to_list
      (Array.mapi
         (fun i (k : Kernel.t) ->
           let op =
             match k.Kernel.op with
             | Kernel.Map e -> Kernel.Map (Expr.rename_images ren e)
             | Kernel.Reduce { init; combine; arg } ->
               Kernel.Reduce { init; combine; arg = Expr.rename_images ren arg }
           in
           Kernel.create ~name:names.(i) ~inputs:(List.map ren k.Kernel.inputs) op)
         p.Pipeline.kernels)
  in
  Pipeline.create ~name:"canonical" ~width:p.Pipeline.width ~height:p.Pipeline.height
    ~channels:p.Pipeline.channels
    ~params:(List.sort (fun (a, _) (b, _) -> String.compare a b) p.Pipeline.params)
    ~inputs:p.Pipeline.inputs kernels

let render_canonical buf (p : Pipeline.t) =
  render_header buf ~with_name:false ~sort_inputs:true p;
  render_params buf ~sorted:true p.Pipeline.params;
  let defs =
    Array.to_list p.Pipeline.kernels
    |> List.map (fun (k : Kernel.t) ->
           let buf = Buffer.create 256 in
           Buffer.add_string buf "(def ";
           quote buf k.Kernel.name;
           Buffer.add_char buf ' ';
           render_kernel buf ~ren:Fun.id ~sort_inputs:true ~alpha:true k;
           Buffer.add_string buf ")";
           Buffer.contents buf)
    |> List.sort String.compare
  in
  List.iter (Buffer.add_string buf) defs

let structural (p : Pipeline.t) =
  let buf = Buffer.create 1024 in
  (match
     let renamed = rename_pipeline p (canonical_names p) in
     (* Normalize so algebraically-equal bodies share an address; the
        passes run on canonical names, making their choices (e.g. which
        CSE candidate wins a size tie) rename-independent. *)
     let normalized =
       try Kfuse_ir.Cse.pipeline (Kfuse_ir.Simplify.pipeline renamed)
       with _ -> renamed
     in
     (* Re-rank on the *normalized* bodies: the first ranking ordered
        kernels by pre-normalization content, so two pipelines whose
        bodies only differ in simplifiable structure would otherwise
        carry different rank names into the render (found by the
        fuzzer's kernel-duplication metamorphic oracle). *)
     rename_pipeline normalized (canonical_names normalized)
   with
  | renamed -> render_canonical buf renamed
  | exception _ ->
    (* Canonical reconstruction itself failed (e.g. a user identifier
       colliding with the reserved prefix): render the original with
       on-the-fly renaming, skipping normalization. *)
    let names = canonical_names p in
    let ren img =
      match Pipeline.producer p img with Some j -> names.(j) | None -> img
    in
    render_header buf ~with_name:false ~sort_inputs:true p;
    render_params buf ~sorted:true p.Pipeline.params;
    let defs =
      Array.to_list p.Pipeline.kernels
      |> List.mapi (fun i (k : Kernel.t) ->
             let buf = Buffer.create 256 in
             Buffer.add_string buf "(def ";
             quote buf names.(i);
             Buffer.add_char buf ' ';
             render_kernel buf ~ren ~sort_inputs:true ~alpha:true k;
             Buffer.add_string buf ")";
             Buffer.contents buf)
      |> List.sort String.compare
    in
    List.iter (Buffer.add_string buf) defs);
  digest (Buffer.contents buf)

(* ---- config + request key ---- *)

let config (c : Config.t) =
  Printf.sprintf "tg=%h ts=%h c_alu=%h c_sfu=%h gamma=%h epsilon=%h c_mshared=%h bx=%d by=%d is=%s"
    c.Config.tg c.Config.ts c.Config.c_alu c.Config.c_sfu c.Config.gamma
    c.Config.epsilon c.Config.c_mshared c.Config.block.Kfuse_ir.Cost.bx
    c.Config.block.Kfuse_ir.Cost.by
    (match c.Config.is_unit with Config.Images -> "images" | Config.Pixels -> "pixels")

type key = { structural : string; exact : string; shape : string }

(* Bump when the rendering, the report type, or the driver semantics
   change incompatibly: old cache entries must stop matching.
   v2: the structural render sorts the input declaration list and
   re-ranks canonical kernel names after normalization (both found by
   the fuzzer's metamorphic oracles). *)
let format_version = 2

let plan_key ~config:c ~strategy ?(optimize = false) ?(inline = false) (p : Pipeline.t) =
  (* The driver always fuses with index exchange; "ex=true" stays so
     that stored keys still match. *)
  let request =
    Printf.sprintf "v%d %s strat=%s ex=true opt=%b inl=%b" format_version (config c)
      (Driver.strategy_to_string strategy)
      optimize inline
  in
  let shape = structural p in
  {
    structural = digest (shape ^ "\n" ^ request);
    exact = digest (exact p ^ "\n" ^ request);
    shape;
  }

(* ---- per-subgraph fingerprint (incremental replanning) ----

   Renders, for a block of kernel indices, exactly the facts the min-cut
   recursion's per-block decision is a function of: the iteration space,
   the per-kernel content hashes in ascending index order (twin-qualified
   producer references pin the intra-block aliasing of every externally
   produced image), whether each kernel's output leaves the block, and
   the in-block edges by dense position.  Index order matters: equal
   fingerprints imply the positional bijection between two blocks is an
   order-preserving isomorphism, which is what makes Stoer-Wagner's
   tie-breaks (dense ascending-index order) replay identically. *)

(* The index of [v] in the ascending array [verts], or -1. *)
let position verts v =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let x = verts.(mid) in
      if x = v then mid else if x < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length verts)

let subgraph ~refs (p : Pipeline.t) block =
  let g = Pipeline.dag p in
  let verts = Array.of_list (Iset.elements block) in
  let buf = Buffer.create (64 * (Array.length verts + 1)) in
  let add = Buffer.add_string buf in
  add "(sg ";
  add
    (String.concat " "
       (List.map string_of_int
          [ p.Pipeline.width; p.Pipeline.height; p.Pipeline.channels; Array.length verts ]));
  Array.iter
    (fun v ->
      let succs = Digraph.succs g v in
      let leaving = Iset.is_empty succs || not (Iset.subset succs block) in
      add "(k ";
      add refs.(v);
      add (if leaving then " true" else " false");
      Iset.iter
        (fun s ->
          let j = position verts s in
          if j >= 0 then begin
            add " >";
            add (string_of_int j)
          end)
        succs;
      Buffer.add_char buf ')')
    verts;
  Buffer.add_char buf ')';
  digest (Buffer.contents buf)
