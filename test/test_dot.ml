(* Tests for the Graphviz DOT renderer. *)

module F = Kfuse_fusion

let test_plain_dag () =
  let p = Kfuse_apps.Sobel.pipeline ~width:32 ~height:32 () in
  let dot = Kfuse_codegen.Dot.emit p in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "has %S" needle) true (Support.contains needle dot))
    [
      "digraph \"sobel\"";
      "label=\"dx\\nlocal(r=1)\"";
      "label=\"mag\\npoint\"";
      "shape=box";
      "shape=ellipse";
      "\"input_in\" [label=\"in\"";
      "\"k0\" -> \"k2\"";
      "\"k1\" -> \"k2\"";
    ]

let test_partition_clusters () =
  let p = Kfuse_apps.Harris.pipeline () in
  let r = F.Mincut_fusion.run F.Config.default p in
  let dot = Kfuse_codegen.Dot.emit ~partition:r.F.Mincut_fusion.partition p in
  (* Three fused pairs -> three clusters. *)
  Alcotest.(check bool) "cluster 0" true (Support.contains "subgraph cluster_" dot);
  let count_clusters =
    let rec loop i n =
      if i + 17 > String.length dot then n
      else if String.sub dot i 17 = "subgraph cluster_" then loop (i + 17) (n + 1)
      else loop (i + 1) n
    in
    loop 0 0
  in
  Alcotest.(check int) "three clusters" 3 count_clusters

let test_edge_labels () =
  let p = Kfuse_apps.Harris.pipeline () in
  let config = F.Config.default in
  let labels u v =
    Some (Printf.sprintf "%.0f" (F.Benefit.edge_weight config p u v))
  in
  let dot = Kfuse_codegen.Dot.emit ~edge_labels:labels p in
  Alcotest.(check bool) "weight 328 label" true (Support.contains "label=\"328\"" dot);
  Alcotest.(check bool) "weight 256 label" true (Support.contains "label=\"256\"" dot)

let test_global_kernel_shape () =
  let p =
    Kfuse_ir.Pipeline.create ~name:"r" ~width:8 ~height:8 ~inputs:[ "in" ]
      [
        Kfuse_ir.Kernel.reduce ~name:"total" ~inputs:[ "in" ] ~init:0.0
          ~combine:Kfuse_ir.Expr.Add (Kfuse_ir.Expr.input "in");
      ]
  in
  Alcotest.(check bool) "hexagon" true (Support.contains "shape=hexagon" (Kfuse_codegen.Dot.emit p))

(* Every ID and label is a quoted DOT string: inputs [a.b] and [a_b]
   stay two nodes, and a quote or backslash in a name cannot end the
   string early. *)
let test_names_quoted () =
  let p =
    Kfuse_ir.Pipeline.create ~name:"q\"uote" ~width:8 ~height:8 ~inputs:[ "a.b"; "a_b" ]
      [
        Kfuse_ir.Kernel.map ~name:"say \"hi\" \\o/" ~inputs:[ "a.b"; "a_b" ]
          Kfuse_ir.Expr.(input "a.b" + input "a_b");
      ]
  in
  let dot = Kfuse_codegen.Dot.emit p in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "has %S" needle) true (Support.contains needle dot))
    [
      "digraph \"q\\\"uote\" {";
      "\"input_a.b\" [label=\"a.b\"";
      "\"input_a_b\" [label=\"a_b\"";
      "\"input_a.b\" -> \"k0\"";
      "\"input_a_b\" -> \"k0\"";
      "label=\"say \\\"hi\\\" \\\\o/\\npoint\"";
    ]

let suite =
  [
    Alcotest.test_case "plain DAG" `Quick test_plain_dag;
    Alcotest.test_case "partition clusters" `Quick test_partition_clusters;
    Alcotest.test_case "edge labels" `Quick test_edge_labels;
    Alcotest.test_case "global kernel shape" `Quick test_global_kernel_shape;
    Alcotest.test_case "names quoted and escaped" `Quick test_names_quoted;
  ]
