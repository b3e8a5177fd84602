(* Aggregated test runner: `dune runtest` executes every suite. *)

let () =
  Alcotest.run "pnrule-repro"
    [
      ("util", Test_util.suite);
      ("data", Test_data.suite);
      ("stream", Test_stream.suite);
      ("rows", Test_rows.suite);
      ("metrics", Test_metrics.suite);
      ("rules", Test_rules.suite);
      ("compiled", Test_compiled.suite);
      ("induct", Test_induct.suite);
      ("pnrule", Test_pnrule.suite);
      ("sampling", Test_sampling.suite);
      ("ensemble", Test_ensemble.suite);
      ("serialize", Test_serialize.suite);
      ("extensions", Test_extensions.suite);
      ("ripper", Test_ripper.suite);
      ("c45", Test_c45.suite);
      ("synth", Test_synth.suite);
      ("harness", Test_harness.suite);
      ("integration", Test_integration.suite);
      ("server", Test_server.suite);
      ("registry", Test_registry.suite);
      ("adapt", Test_adapt.suite);
      ("fault", Test_fault.suite);
      ("columnar", Test_columnar.suite);
      ("serve", Test_serve.suite);
      ("shard", Test_shard.suite);
      ("golden", Test_golden.suite);
    ]
