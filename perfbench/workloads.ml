(* The four benchmark workloads and the metrics computed from their parts.

   Why each workload (the parameters are fixed by the benchmark's
   definition; only the number of parts pooled per run is tuned):

   - oltp-open: the paper's common case, short mostly-local record
     transactions arriving open-loop just under the knee (12/s is past
     it). Disk and cache, opens and single-site commit do the work.
   - hot-closed: contention, deadlock, multi-site 2PC and the §5.2 page
     merge on a data set that fits in cache.
   - failover-open: site crashes under replication, the only path
     through recovery (§4.4) and primary-copy propagation.
   - explore-faults: the checker sweep CI runs, the only path through the
     history recorder and the serializability checker. *)

module Opmix = Locus_load.Opmix

let oltp_open =
  {
    Records.loop = Records.Open 10.;
    sites = 3;
    replicas = 1;
    records_per_site = 16_384;
    zipf_s = 0.9;
    mix = Opmix.make ~read_frac:0.8 ~ops_min:2 ~ops_max:4 ();
    remote_frac = 0.1;
    window_us = 300_000_000;
    crash_every_us = 0;
    crash_down_us = 0;
  }

let hot_closed =
  {
    oltp_open with
    Records.loop = Records.Closed 3;
    records_per_site = 64;
    zipf_s = 1.0;
    mix = Opmix.make ~read_frac:0.5 ~ops_min:2 ~ops_max:4 ();
    remote_frac = 0.2;
  }

let failover_open =
  {
    oltp_open with
    Records.loop = Records.Open 6.;
    replicas = 2;
    records_per_site = 1_024;
    crash_every_us = 100_000_000;
    crash_down_us = 5_000_000;
  }

let seeds_per_part = 1_000

type kind = Records of Records.shape | Explore

type t = {
  name : string;
  kind : kind;
  parts : int;  (** parts pooled into one run's virtual figures *)
}

let all =
  [ { name = "oltp-open"; kind = Records oltp_open; parts = 30 };
    { name = "hot-closed"; kind = Records hot_closed; parts = 6 };
    { name = "failover-open"; kind = Records failover_open; parts = 20 };
    { name = "explore-faults"; kind = Explore; parts = 8 } ]

(* Part [i] of a run with seed [seed]. Record parts get seeds of their
   own; a run's sweep covers [parts * seeds_per_part] consecutive checker
   seeds, and runs with different seeds cover disjoint ones. *)
let run_part ?spans w ~seed i =
  match w.kind with
  | Records shape -> Records.run ?spans shape ~seed:((seed * 64) + i)
  | Explore ->
    Explore_faults.run ?spans ~first:(((seed * w.parts) + i) * seeds_per_part) ~n:seeds_per_part ()

let failed parts =
  let t = Part.total parts in
  t "offered" -. t "committed" +. t "lost_updates"

let per parts num den = Quant.ratio (Part.total parts num) (Part.total parts den)
let latencies parts = List.concat_map (fun p -> p.Part.latencies_us) parts
let median_of f parts = Quant.median (List.map f parts)
let per_txn f p = Quant.ratio (f p) (Part.get p "offered")

(* [parts] are the run's distinct parts; [host] every part executed,
   repeats included. A set-up takes a few milliseconds or less, and its
   median over a run swings with the host's load by up to half between
   runs; the fastest of the run's set-ups repeats within about a
   twentieth, so [setup_s] is the minimum. *)
let end_to_end ~parts ~host =
  let lat = latencies parts in
  [ ("p50_ms", Quant.percentile lat 50. /. 1e3);
    ("p99_ms", Quant.percentile lat 99. /. 1e3);
    ("commit_tps", per parts "committed" "virtual_s");
    ("slo_tps", per parts "slo_commits" "virtual_s");
    ("commit_frac", per parts "committed" "offered");
    ("alloc_words_per_txn", median_of (per_txn (fun p -> p.Part.words)) host);
    ("peak_heap_mb", List.fold_left (fun acc p -> Float.max acc p.Part.live_mb) 0. parts);
    ("setup_s", List.fold_left (fun acc p -> Float.min acc p.Part.setup_s) infinity host) ]

let api_calls =
  [ "api.begin"; "api.open"; "api.lock"; "api.read"; "api.write"; "api.close";
    "api.end_trans" ]

(* [parts] and [host] as for {!end_to_end}; [traced] are traced runs of
   the first parts. Counts come from every part, span and kernel-phase
   times from the traced runs, host-clock figures from the untraced. *)
let per_layer ~parts ~host ~traced =
  let p = per parts and k = 1e3 in
  let ms num den = p num den /. 1e3 in
  let traced_ms num den = per traced num den /. 1e3 in
  let span_ms name = traced_ms ("span:" ^ name) "span:txn#n" in
  let host_cost = median_of (per_txn (fun q -> q.Part.cpu_s)) in
  let in_calls = List.fold_left (fun a n -> a +. Part.total traced ("span:" ^ n)) 0. api_calls in
  [ ( "api.residual_ms",
      Quant.ratio (Part.total traced "span:txn" -. in_calls) (Part.total traced "span:txn#n")
      /. 1e3 );
    ("sim.events_per_txn", p "events" "offered");
    ("sim.host_us_per_txn", 1e6 *. host_cost host);
    ( "sim.events_per_s",
      median_of (fun q -> Quant.ratio (float_of_int q.Part.events) q.Part.cpu_s) host );
    ( "sim.words_per_event",
      median_of (fun q -> Quant.ratio q.Part.words (float_of_int q.Part.events)) host );
    ("sim.alloc_drift", median_of (fun q -> q.Part.drift) host);
    ("net.msgs_per_txn", p "c:net.msg" "offered");
    ("disk.reads_per_txn", p "c:disk.io.read" "offered");
    ("disk.writes_per_txn", p "c:disk.io.write" "offered");
    ("disk.log_ios_per_txn", p "c:disk.io.log" "offered");
    ( "fs.merge_frac",
      Quant.ratio (Part.total parts "c:commit.merge")
        (Part.total parts "c:commit.merge" +. Part.total parts "c:commit.direct") );
    ("lock.requests_per_txn", p "c:lock.requests" "offered");
    ("lock.wait_frac", p "c:lock.waits" "c:lock.requests");
    ("lock.wait_ms", ms "lock_wait_us" "lock_wait#n");
    ("lock.held_at_drain", Part.total parts "locks_held");
    ("deadlock.scans_per_ktxn", k *. p "c:deadlock.scans" "offered");
    ("deadlock.victims_per_ktxn", k *. p "c:deadlock.victims" "offered");
    ("deadlock.victim_yield", p "c:deadlock.victims" "c:deadlock.scans");
    ("txn.prepares_per_txn", p "c:2pc.prepares" "offered");
    ("txn.prepare_ms", traced_ms "phase:2pc.prepare" "phase:2pc.prepare#n");
    ("txn.votes_ms", traced_ms "phase:2pc.votes" "phase:2pc.votes#n");
    ("txn.commit_force_ms", traced_ms "phase:commit.force" "phase:commit.force#n");
    ("txn.phase2_ms", traced_ms "phase:2pc.phase2" "phase:2pc.phase2#n");
    ("proc.killed_per_ktxn", k *. p "killed" "offered");
    ("repl.propagations_per_txn", p "c:replica.propagate" "offered");
    ("repl.gaps_per_ktxn", k *. p "c:replica.gaps" "offered");
    ("repl.local_read_frac", p "c:replica.local_reads" "reads");
    ("repl.recovery_ms", Quant.median (List.concat_map (fun q -> q.Part.recovery_ms) parts));
    ("check.run_ms_per_seed", 1e3 *. per host "host:run_s" "seeds");
    ("check.checker_ms_per_seed", 1e3 *. per host "host:check_s" "seeds");
    ("check.events_per_seed", p "history_events" "seeds");
    ("check.seeds_per_s", median_of (fun q -> Quant.ratio (Part.get q "seeds") q.Part.cpu_s) host);
    ("load.gen_lag_ms", traced_ms "span:load.gen_lag" "span:load.gen_lag#n");
    ("trace.overhead", Quant.ratio (host_cost traced) (host_cost host));
    ("outcome.fail_frac", 1. -. p "committed" "offered");
    ("outcome.lost_updates", Part.total parts "lost_updates");
    ("outcome.samples", float_of_int (List.length (latencies parts))) ]
  @ List.map (fun n -> (n ^ "_ms", span_ms n)) api_calls
