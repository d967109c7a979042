module Iset = Kfuse_util.Iset
module Digraph = Kfuse_graph.Digraph
module Pipeline = Kfuse_ir.Pipeline
module Kernel = Kfuse_ir.Kernel

let block_colors =
  [| "#a6cee3"; "#b2df8a"; "#fdbf6f"; "#cab2d6"; "#fb9a99"; "#ffff99"; "#1f78b4"; "#33a02c" |]

let node_shape (k : Kernel.t) =
  match Kernel.pattern k with
  | Kernel.Point -> "ellipse"
  | Kernel.Local _ -> "box"
  | Kernel.Global -> "hexagon"

(* Inside a DOT quoted string only the double quote and the backslash
   are special. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""
let input_node name = quote ("input_" ^ name)
let kernel_node i = quote (Printf.sprintf "k%d" i)

let emit ?partition ?edge_labels (p : Pipeline.t) =
  let buf = Buffer.create 1024 in
  let b fmt = Printf.bprintf buf fmt in
  let g = Pipeline.dag p in
  b "digraph %s {\n" (quote p.Pipeline.name);
  b "  rankdir=TB;\n  node [fontname=\"Helvetica\", fontsize=11];\n";
  (* Pipeline inputs as plain sources. *)
  List.iter
    (fun i ->
      b "  %s [label=%s, shape=plaintext, fontcolor=gray40];\n" (input_node i) (quote i))
    p.Pipeline.inputs;
  let node_line i =
    let k = Pipeline.kernel p i in
    Printf.sprintf "    %s [label=\"%s\\n%s\", shape=%s];\n" (kernel_node i)
      (escape k.Kernel.name)
      (escape (Kernel.pattern_to_string (Kernel.pattern k)))
      (node_shape k)
  in
  (match partition with
  | None ->
    Digraph.fold_vertices (fun i () -> b "  %s" (String.trim (node_line i)); b "\n") g ()
  | Some blocks ->
    List.iteri
      (fun bi block ->
        if Iset.cardinal block >= 2 then begin
          b "  subgraph cluster_%d {\n" bi;
          b "    style=filled; color=\"%s\"; label=\"fused\";\n"
            block_colors.(bi mod Array.length block_colors);
          Iset.iter (fun i -> b "%s" (node_line i)) block;
          b "  }\n"
        end
        else Iset.iter (fun i -> b "  %s" (node_line i)) block)
      (Kfuse_graph.Partition.normalize blocks));
  (* Input edges. *)
  Digraph.fold_vertices
    (fun i () ->
      List.iter
        (fun img ->
          if Pipeline.producer p img = None then
            b "  %s -> %s [color=gray60];\n" (input_node img) (kernel_node i))
        (Pipeline.kernel p i).Kernel.inputs)
    g ();
  (* Dependence edges. *)
  List.iter
    (fun (u, v) ->
      let label =
        match edge_labels with
        | Some f -> (
          match f u v with Some l -> Printf.sprintf " [label=%s]" (quote l) | None -> "")
        | None -> ""
      in
      b "  %s -> %s%s;\n" (kernel_node u) (kernel_node v) label)
    (Digraph.edges g);
  b "}\n";
  Buffer.contents buf
