let () =
  Alcotest.run "topo_overlay"
    [
      ("prelude", Test_prelude.suite);
      ("geometry", Test_geometry.suite);
      ("topology", Test_topology.suite);
      ("engine", Test_engine.suite);
      ("probe", Test_probe.suite);
      ("metrics", Test_metrics.suite);
      ("landmark", Test_landmark.suite);
      ("can", Test_can.suite);
      ("ecan", Test_ecan.suite);
      ("routing", Test_routing.suite);
      ("chord", Test_chord.suite);
      ("pastry", Test_pastry.suite);
      ("koorde", Test_koorde.suite);
      ("conformance", Test_conformance.suite);
      ("softstate", Test_softstate.suite);
      ("pubsub", Test_pubsub.suite);
      ("faults", Test_faults.suite);
      ("repair", Test_repair.suite);
      ("proximity", Test_proximity.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("workload", Test_workload.suite);
      ("cache", Test_cache.suite);
      ("mcast", Test_mcast.suite);
      ("domains", Test_domains.suite);
      ("properties", Test_properties.suite);
      ("perf", Test_perf.suite);
      ("edges", Test_edges.suite);
      ("storm", Test_storm.suite);
    ]
