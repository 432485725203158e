(* The benchmark's own checks, on shortened versions of its workloads:
   a part run twice with one seed gives identical virtual figures and
   outcome counts, and its outcome classes add up to what was offered;
   the accounting check itself fails when they do not. *)

open Perfbench

let short shape = { shape with Records.window_us = 20_000_000 }

let same_twice name run () =
  let a = run () and b = run () in
  Alcotest.(check bool) (name ^ " outcome classes add up, checks pass") true a.Part.ok;
  Alcotest.(check bool) (name ^ " offered something") true (Part.get a "offered" > 0.);
  Alcotest.(check string) (name ^ " same seed, same figures") (Part.fingerprint a)
    (Part.fingerprint b)

let records name shape =
  Alcotest.test_case name `Quick (same_twice name (fun () -> Records.run (short shape) ~seed:7))

let () =
  Alcotest.run "perfbench"
    [ ( "determinism",
        [ records "oltp-open" Workloads.oltp_open;
          records "hot-closed" Workloads.hot_closed;
          records "failover-open" { Workloads.failover_open with crash_every_us = 10_000_000 };
          Alcotest.test_case "explore-faults" `Quick
            (same_twice "explore-faults" (fun () -> Explore_faults.run ~first:7 ~n:40 ())) ] );
      ( "accounting",
        (let drained =
           { Records.offered = 10; committed = 6; aborted = 1; error = 0; killed = 2; shed = 1;
             unfinished = 0 }
         in
         let fails name c ~spawned ~exits ~lost =
           Alcotest.test_case name `Quick (fun () ->
               Alcotest.(check bool) "the check fails" true
                 (Records.accounting c ~spawned ~exits ~lost <> []))
         in
         [ Alcotest.test_case "a drained run adds up" `Quick (fun () ->
               Alcotest.(check (list string)) "no problems" []
                 (Records.accounting drained ~spawned:9 ~exits:8 ~lost:1));
           fails "a transaction left unfinished"
             { drained with killed = 1; unfinished = 1 } ~spawned:9 ~exits:8 ~lost:1;
           fails "a process that never exited" drained ~spawned:9 ~exits:7 ~lost:1;
           fails "an arrival that started nothing" drained ~spawned:8 ~exits:7 ~lost:1;
           fails "a transaction in no class" { drained with committed = 5 } ~spawned:9 ~exits:8
             ~lost:1 ]) );
      ( "runaway",
        [ Alcotest.test_case "a run that never drains stops at its deadline" `Quick (fun () ->
              let eng = Locus_sim.Engine.create () in
              let rec tick () = Locus_sim.Engine.schedule ~delay:1_000 eng tick in
              tick ();
              Alcotest.(check bool) "reported, not hung" true
                (Records.drive eng ~deadline:5_000_000 <> None)) ] );
      ( "quantiles",
        [ Alcotest.test_case "nearest rank" `Quick (fun () ->
              let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
              Alcotest.(check (float 0.)) "p50" 50. (Quant.percentile xs 50.);
              Alcotest.(check (float 0.)) "p99" 99. (Quant.percentile xs 99.);
              Alcotest.(check (float 0.)) "median of even count" 50.5 (Quant.median xs)) ] ) ]
