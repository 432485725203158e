(* Transport: rpc, latency model, one-way sends, crash, restart,
   partition, incarnation fencing. *)

module E = Engine
module T = Locus_net.Transport

type msg = Echo of int | Slow of int
type resp = Val of int

let with_net ?(n_sites = 3) f =
  let e = E.create () in
  let net = T.create e ~n_sites in
  List.iter
    (fun s ->
      T.set_handler net s (fun ~src:_ m ->
          match m with
          | Echo n -> Val (n + (100 * s))
          | Slow n ->
            E.sleep 50_000;
            Val n))
    (T.sites net);
  f e net;
  E.run e

let test_rpc_roundtrip () =
  let got = ref None and t_done = ref 0 in
  with_net (fun e net ->
      ignore
        (E.spawn e (fun () ->
             got := Some (T.rpc net ~src:0 ~dst:1 (Echo 5));
             t_done := E.now e)));
  (match !got with
  | Some (Ok (Val 105)) -> ()
  | _ -> Alcotest.fail "bad rpc result");
  (* Round trip: two one-way latencies plus CPU at both ends. *)
  let c = Costs.default in
  Alcotest.(check bool) "latency >= 2 one-way" true (!t_done >= 2 * c.Costs.msg_latency_us)

let test_local_rpc_no_wire () =
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 0 (fun ~src:_ (Echo n | Slow n) -> Val n);
  let got = ref None in
  ignore (E.spawn e (fun () -> got := Some (T.rpc net ~src:0 ~dst:0 (Echo 9))));
  E.run e;
  (match !got with Some (Ok (Val 9)) -> () | _ -> Alcotest.fail "local rpc");
  Alcotest.(check int) "no messages counted" 0 (Stats.get (E.stats e) "net.msg")

let test_rpc_counts_messages () =
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) -> Val n);
  ignore (E.spawn e (fun () -> ignore (T.rpc net ~src:0 ~dst:1 (Echo 1))));
  E.run e;
  Alcotest.(check int) "request + reply" 2 (Stats.get (E.stats e) "net.msg")

let test_no_handler () =
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  let got = ref None in
  ignore (E.spawn e (fun () -> got := Some (T.rpc net ~src:0 ~dst:0 (Echo 1))));
  E.run e;
  match !got with
  | Some (Error T.No_handler) -> ()
  | _ -> Alcotest.fail "expected No_handler"

let test_crash_drops_messages () =
  let got = ref None and t_done = ref 0 in
  with_net (fun e net ->
      ignore
        (E.spawn e (fun () ->
             got := Some (T.rpc net ~src:0 ~dst:1 (Slow 3));
             t_done := E.now e));
      (* Crash the server mid-service: its handler fiber dies and the
         reply never arrives. *)
      ignore
        (E.spawn e (fun () ->
             E.sleep 20_000;
             T.crash net 1)));
  (match !got with
  | Some (Error T.Timeout) -> ()
  | _ -> Alcotest.fail "expected timeout after crash");
  (* The crash is detected: the call fails then, not after the timeout. *)
  Alcotest.(check int) "failed at the crash" 20_000 !t_done

(* A partition fails exactly the calls it cuts off, at once; a call on a
   link that stays connected completes normally. *)
let test_partition_cuts_inflight_rpc () =
  let cut = ref None and kept = ref None and t_cut = ref 0 in
  with_net (fun e net ->
      ignore
        (E.spawn e (fun () ->
             cut := Some (T.rpc net ~src:0 ~dst:1 (Slow 1));
             t_cut := E.now e));
      ignore (E.spawn e (fun () -> kept := Some (T.rpc net ~src:1 ~dst:2 (Slow 2))));
      ignore
        (E.spawn e (fun () ->
             E.sleep 20_000;
             T.partition net [ [ 0 ]; [ 1; 2 ] ])));
  (match !cut with
  | Some (Error T.Timeout) -> ()
  | _ -> Alcotest.fail "expected the cut call to fail");
  Alcotest.(check int) "failed at the partition" 20_000 !t_cut;
  match !kept with
  | Some (Ok (Val 2)) -> ()
  | _ -> Alcotest.fail "call inside one side of the partition must complete"

let test_crash_watchers () =
  let crashed = ref [] and restarted = ref [] and topo = ref 0 in
  let e = E.create () in
  let net = T.create e ~n_sites:3 in
  T.on_crash net (fun s -> crashed := s :: !crashed);
  T.on_restart net (fun s -> restarted := s :: !restarted);
  T.on_topology_change net (fun () -> incr topo);
  T.crash net 2;
  T.crash net 2 (* idempotent *);
  T.restart net 2;
  Alcotest.(check (list int)) "crashed" [ 2 ] !crashed;
  Alcotest.(check (list int)) "restarted" [ 2 ] !restarted;
  Alcotest.(check int) "topology events" 2 !topo;
  Alcotest.(check bool) "up again" true (T.site_up net 2)

let test_partition () =
  let e = E.create () in
  let net = T.create e ~n_sites:4 in
  T.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "same group" true (T.reachable net 0 1);
  Alcotest.(check bool) "cross group" false (T.reachable net 1 2);
  Alcotest.(check bool) "self" true (T.reachable net 2 2);
  T.heal net;
  Alcotest.(check bool) "healed" true (T.reachable net 1 2)

let test_partition_blocks_rpc () =
  let got = ref None in
  with_net (fun e net ->
      T.partition net [ [ 0 ]; [ 1; 2 ] ];
      ignore (E.spawn e (fun () -> got := Some (T.rpc net ~src:0 ~dst:1 (Echo 1)))));
  match !got with
  | Some (Error T.Timeout) -> ()
  | _ -> Alcotest.fail "expected timeout across partition"

let test_successive_partitions_disjoint () =
  let e = E.create () in
  let net = T.create e ~n_sites:4 in
  T.partition net [ [ 0; 1 ] ];
  T.partition net [ [ 2; 3 ] ];
  (* Groups from different calls must not merge. *)
  Alcotest.(check bool) "0-1" true (T.reachable net 0 1);
  Alcotest.(check bool) "2-3" true (T.reachable net 2 3);
  Alcotest.(check bool) "1-2 separated" false (T.reachable net 1 2)

let test_incarnation_fencing () =
  (* A message in flight to a site that crashes and instantly reboots must
     not be delivered to the new incarnation. *)
  let served = ref 0 in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) ->
      incr served;
      Val n);
  ignore (E.spawn e (fun () -> ignore (T.rpc net ~src:0 ~dst:1 (Echo 1))));
  ignore
    (E.spawn e (fun () ->
         (* Crash + restart while the request is on the wire (the sender
            charges ~1.5 ms of CPU before the wire, one-way is 6.5 ms). *)
         E.sleep 4_000;
         T.crash net 1;
         T.restart net 1));
  E.run e;
  Alcotest.(check int) "stale message dropped" 0 !served

(* {1 rpc_retry} *)

let test_retry_transient_reply () =
  (* The handler answers "busy" (Val 0) twice, then the real value; the
     retry loop must keep going past application-level refusals. *)
  let calls = ref 0 and got = ref None in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) ->
      incr calls;
      if !calls <= 2 then Val 0 else Val n);
  ignore
    (E.spawn e (fun () ->
         got :=
           Some
             (T.rpc_retry ~attempts:5 ~backoff_us:1_000
                ~retry_if:(fun (Val v) -> v = 0)
                net ~src:0 ~dst:1 (Echo 9))));
  E.run e;
  (match !got with
  | Some (Ok (Val 9)) -> ()
  | _ -> Alcotest.fail "expected the third reply");
  Alcotest.(check int) "three calls" 3 !calls

let test_retry_exhausts_attempts () =
  let calls = ref 0 and got = ref None in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo _ | Slow _) ->
      incr calls;
      Val 0);
  ignore
    (E.spawn e (fun () ->
         got :=
           Some
             (T.rpc_retry ~attempts:3 ~backoff_us:1_000
                ~retry_if:(fun (Val v) -> v = 0)
                net ~src:0 ~dst:1 (Echo 9))));
  E.run e;
  (match !got with
  | Some (Ok (Val 0)) -> () (* the last reply is surfaced *)
  | _ -> Alcotest.fail "expected last busy reply");
  Alcotest.(check int) "bounded attempts" 3 !calls

let test_retry_rides_out_crash () =
  (* Server down for the first tries; the backoff outlives the outage, so
     the rpc eventually lands — the §4.2 phase-2 use case. *)
  let got = ref None in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) -> Val n);
  T.crash net 1;
  ignore
    (E.spawn e (fun () ->
         got :=
           Some
             (T.rpc_retry ~attempts:8 ~backoff_us:500_000 net ~src:0 ~dst:1
                (Echo 4))));
  ignore
    (E.spawn e (fun () ->
         E.sleep 2_000_000;
         T.restart net 1));
  E.run e;
  match !got with
  | Some (Ok (Val 4)) -> ()
  | r ->
    Alcotest.failf "expected success after restart, got %s"
      (match r with
      | None -> "nothing"
      | Some (Ok (Val v)) -> Printf.sprintf "Val %d" v
      | Some (Error _) -> "transport error")

(* {1 Fault injection (locus_chaos)} *)

let test_faults_drop_and_dup () =
  (* Certainty-rate faults make the injection paths deterministic without
     touching PRNG internals: drop = 1.0 delivers nothing, dup = 1.0
     delivers everything twice. *)
  let served = ref 0 in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) ->
      incr served;
      Val n);
  T.set_faults net (Some { T.no_faults with drop = 1.0 });
  T.send net ~src:0 ~dst:1 (Echo 1);
  E.run e;
  Alcotest.(check int) "dropped" 0 !served;
  Alcotest.(check int) "drop counted" 1 (Stats.get (E.stats e) "net.drop");
  T.set_faults net (Some { T.no_faults with dup = 1.0 });
  T.send net ~src:0 ~dst:1 (Echo 2);
  E.run e;
  Alcotest.(check int) "original + duplicate" 2 !served;
  Alcotest.(check int) "dup counted" 1 (Stats.get (E.stats e) "net.dup")

let test_reorder_window () =
  (* With a reorder window armed, a burst of one-way sends must arrive
     complete (reordering never loses anything) but out of order, and the
     overtakes must be counted. *)
  let order = ref [] in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) ->
      order := n :: !order;
      Val n);
  T.set_faults net (Some { T.no_faults with reorder = 4 });
  for i = 1 to 16 do
    T.send net ~src:0 ~dst:1 (Echo i)
  done;
  E.run e;
  let got = List.rev !order in
  Alcotest.(check int) "all 16 delivered" 16 (List.length got);
  Alcotest.(check (list int))
    "same multiset" (List.init 16 (fun i -> i + 1))
    (List.sort Int.compare got);
  Alcotest.(check bool) "sequence overtaken" true
    (got <> List.init 16 (fun i -> i + 1));
  Alcotest.(check bool) "reorders counted" true
    (Stats.get (E.stats e) "net.reorder" > 0)

let test_per_link_override () =
  (* A reliable per-link override shields one link from the global fault
     model; the reverse direction keeps losing messages. *)
  let served = ref 0 in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 0 (fun ~src:_ (Echo n | Slow n) ->
      incr served;
      Val n);
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) ->
      incr served;
      Val n);
  T.set_faults net (Some { T.no_faults with drop = 1.0 });
  T.set_link_faults net ~src:0 ~dst:1 (Some T.no_faults);
  T.send net ~src:0 ~dst:1 (Echo 1);
  T.send net ~src:1 ~dst:0 (Echo 2);
  E.run e;
  Alcotest.(check int) "only the shielded link delivered" 1 !served

let test_send_one_way () =
  let served = ref 0 in
  let e = E.create () in
  let net = T.create e ~n_sites:2 in
  T.set_handler net 1 (fun ~src:_ (Echo n | Slow n) ->
      served := !served + n;
      Val n);
  T.send net ~src:0 ~dst:1 (Echo 7);
  E.run e;
  Alcotest.(check int) "delivered" 7 !served

let suite =
  [
    ( "net.transport",
      [
        Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
        Alcotest.test_case "local rpc skips wire" `Quick test_local_rpc_no_wire;
        Alcotest.test_case "message counting" `Quick test_rpc_counts_messages;
        Alcotest.test_case "no handler" `Quick test_no_handler;
        Alcotest.test_case "crash drops messages" `Quick test_crash_drops_messages;
        Alcotest.test_case "crash watchers" `Quick test_crash_watchers;
        Alcotest.test_case "partition" `Quick test_partition;
        Alcotest.test_case "partition blocks rpc" `Quick test_partition_blocks_rpc;
        Alcotest.test_case "partition cuts in-flight rpc" `Quick
          test_partition_cuts_inflight_rpc;
        Alcotest.test_case "successive partitions" `Quick
          test_successive_partitions_disjoint;
        Alcotest.test_case "incarnation fencing" `Quick test_incarnation_fencing;
        Alcotest.test_case "retry past transient reply" `Quick
          test_retry_transient_reply;
        Alcotest.test_case "retry bounded" `Quick test_retry_exhausts_attempts;
        Alcotest.test_case "retry rides out crash" `Quick
          test_retry_rides_out_crash;
        Alcotest.test_case "faults: drop and dup" `Quick test_faults_drop_and_dup;
        Alcotest.test_case "faults: reorder window" `Quick test_reorder_window;
        Alcotest.test_case "faults: per-link override" `Quick
          test_per_link_override;
        Alcotest.test_case "one-way send" `Quick test_send_one_way;
      ] );
  ]
