(* Aggregate test runner: `dune runtest`. *)

let () =
  Alcotest.run "kfuse"
    [
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("graph", Test_graph.suite);
      ("stoer-wagner", Test_stoer_wagner.suite);
      ("image", Test_image.suite);
      ("pgm", Test_pgm.suite);
      ("ir", Test_ir.suite);
      ("footprint", Test_footprint.suite);
      ("opt", Test_opt.suite);
      ("legality", Test_legality.suite);
      ("benefit", Test_benefit.suite);
      ("transform", Test_transform.suite);
      ("substitute", Test_substitute.suite);
      ("conv-match", Test_conv_match.suite);
      ("fusion-algorithms", Test_fusion_algos.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("inline", Test_inline.suite);
      ("distribute", Test_distribute.suite);
      ("gpu", Test_gpu.suite);
      ("event-sim", Test_event_sim.suite);
      ("codegen", Test_codegen.suite);
      ("codegen-exec", Test_codegen_exec.suite);
      ("exec", Test_exec.suite);
      ("dot", Test_dot.suite);
      ("dsl", Test_dsl.suite);
      ("unparse", Test_unparse.suite);
      ("apps", Test_apps.suite);
      ("extra-apps", Test_extra_apps.suite);
      ("integration", Test_integration.suite);
      ("properties", Test_properties.suite);
      ("validate", Test_validate.suite);
      ("faults", Test_faults.suite);
      ("cache", Test_cache.suite);
      ("session-table", Test_session_table.suite);
      ("service", Test_service.suite);
      ("topology", Test_topology.suite);
      ("chaos", Test_chaos.suite);
      ("stream", Test_stream.suite);
      ("lazy", Test_lazy.suite);
      ("fuzz", Test_fuzz.suite);
      ("cli", Test_cli.suite);
    ]
