(* The explore-faults workload: a checker sweep over consecutive seeds in
   the shape of the CI lanes (3 sites, 2 replicas, a crash or partition
   on every 2nd seed, 4 txns x 4 ops x 4 records). Each seed is run with
   [Workload.run] and judged with [Checker.check] and [Workload.blocked]. *)

module Workload = Locus_check.Workload
module Checker = Locus_check.Checker
module History = Locus_check.History
module Obs = Locus_core.Obs
module Engine = Locus_sim.Engine
module Stats = Locus_sim.Stats
module L = Locus_core.Locus

let sites = 3
let replicas = 2
let txns = 4
let ops = 4
let records = 4
let fault_every = 2

(* The explorer's 2PC fault rotation: alternate crash + reboot and
   partition + heal over the faulted seeds, at the 1st-3rd decide. *)
let fault_for seed =
  if seed mod fault_every <> 0 then None
  else
    let nth = seed / fault_every in
    let victim = nth mod sites and after_decides = 1 + (seed mod 3) in
    Some
      (if nth mod 2 = 0 then Workload.Crash { victim; after_decides; restart_delay = 2_000_000 }
       else Workload.Partition { victim; after_decides; heal_delay = 2_000_000 })

let latencies hist =
  let begun = Hashtbl.create 8 in
  List.filter_map
    (fun (r : Obs.record) ->
      match r.Obs.ev with
      | Obs.Begin { txid; _ } ->
        Hashtbl.replace begun txid r.Obs.at;
        None
      | Obs.Commit { txid } ->
        Option.map (fun b -> float_of_int (r.Obs.at - b)) (Hashtbl.find_opt begun txid)
      | _ -> None)
    (History.events hist)

let run ?spans ~first ~n () =
  (* The set-up is generating the sweep's plan, timed on a freshly
     collected heap ([live_mb] collects it). *)
  let live0 = Part.live_mb () in
  let c0 = Sys.time () in
  let plan =
    List.init n (fun i ->
        let s = first + i in
        (s, Workload.gen ~seed:s ~sites ~txns ~ops ~records (), fault_for s))
  in
  let setup_s = Sys.time () -. c0 in
  let timed name ~txn f =
    let t = Sys.time () in
    let v =
      match spans with
      | None -> f ()
      | Some sp ->
        Spans.with_span sp ~clock:Spans.Host ~now:(fun () -> Spans.host_now sp) ~parent:(-1) ~txn
          name f
    in
    (v, Sys.time () -. t)
  in
  let sums = Hashtbl.create 32 in
  let add = Part.add sums in
  let addi key v = add key (float_of_int v) in
  let lat = ref [] and events = ref 0 and q1 = ref 0. and q3 = ref 0. and live_mb = ref 0. in
  let w0 = Gc.minor_words () in
  let cpu0 = Sys.time () in
  List.iteri
    (fun i (s, spec, fault) ->
      if i = n / 4 then q1 := Gc.minor_words ();
      if i = 3 * n / 4 then q3 := Gc.minor_words ();
      let (hist, sim), run_s =
        timed "check.workload_run" ~txn:s (fun () -> Workload.run ?fault ~replicas ~seed:s spec)
      in
      let report, check_s = timed "check.checker" ~txn:s (fun () -> Checker.check hist) in
      let committed = List.length report.Checker.committed
      and aborted = List.length report.Checker.aborted
      and no_outcome = List.length report.Checker.unresolved in
      let l = latencies hist in
      lat := List.rev_append l !lat;
      events := !events + Engine.events_fired sim.L.engine;
      if i = n - 1 then live_mb := Part.live_mb () -. live0;
      add "host:run_s" run_s;
      add "host:check_s" check_s;
      addi "offered" txns;
      addi "committed" committed;
      addi "aborted" aborted;
      addi "killed" no_outcome;
      (* The classes come from the history; the count offered from the
         spec. A transaction that never began, or is in two classes,
         breaks the sum. *)
      if committed + aborted + no_outcome <> txns then addi "unaccounted" 1;
      addi "unpermitted" (List.length (Checker.unpermitted report));
      addi "blocked" (List.length (Workload.blocked sim));
      add "virtual_s" (float_of_int (Engine.now sim.L.engine) /. 1e6);
      addi "slo_commits" (List.length (List.filter (fun x -> x <= float_of_int Records.slo_us) l));
      addi "seeds" 1;
      addi "history_events" (History.length hist);
      let st = Engine.stats sim.L.engine in
      List.iter (fun name -> addi ("c:" ^ name) (Stats.get st name)) Records.counter_names;
      match Stats.histogram st "lock.wait_us" with
      | Some h ->
        addi "lock_wait_us" (Stats.Hist.total h);
        addi "lock_wait#n" (Stats.Hist.count h)
      | None -> ())
    plan;
  let cpu_s = Sys.time () -. cpu0 in
  let words = Gc.minor_words () -. w0 in
  addi "events" !events;
  let tally = List.sort compare (List.of_seq (Hashtbl.to_seq sums)) in
  let t k = Option.value ~default:0. (List.assoc_opt k tally) in
  let drift =
    if n < 4 then 0.
    else
      Quant.ratio
        ((w0 +. words -. !q3) /. float_of_int (n - (3 * n / 4)))
        ((!q1 -. w0) /. float_of_int (n / 4))
  in
  {
    Part.tally;
    latencies_us = !lat;
    recovery_ms = [];
    setup_s;
    cpu_s;
    words;
    events = !events;
    drift;
    live_mb = !live_mb;
    ok = t "unpermitted" = 0. && t "blocked" = 0. && t "unaccounted" = 0.;
    notes =
      [ Printf.sprintf
          "seeds %d-%d: offered %.0f = committed %.0f + aborted %.0f + no outcome %.0f; %.0f \
           unpermitted violations, %.0f blocked participants, %.0f seeds whose classes do \
           not add up"
          first (first + n - 1) (t "offered") (t "committed") (t "aborted") (t "killed")
          (t "unpermitted") (t "blocked") (t "unaccounted") ];
  }
