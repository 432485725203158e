(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   Runs the workload's fixed set of parts for the seed, then repeats
   parts (part 0 at least once) until S host seconds have passed; a
   repeated part must reproduce its first run exactly. Writes a human summary to stderr and,
   as the last line of stdout, one JSON object with the keys "correct",
   "attempted", "failed" and "metrics". With --trace 0 the metrics are
   the end-to-end ones. With --trace 1 the first parts also run traced,
   the metrics are the per-layer ones, and the first traced part's spans
   go to FILE. *)

module W = Perfbench.Workloads
module Part = Perfbench.Part
module Spans = Perfbench.Spans

let units =
  [ ("p50_ms", "ms"); ("p99_ms", "ms"); ("commit_tps", "1/s"); ("slo_tps", "1/s");
    ("commit_frac", "ratio"); ("alloc_words_per_txn", "words");
    ("peak_heap_mb", "MB"); ("setup_s", "s"); ("api.begin_ms", "ms"); ("api.open_ms", "ms");
    ("api.lock_ms", "ms"); ("api.read_ms", "ms"); ("api.write_ms", "ms"); ("api.close_ms", "ms");
    ("api.end_trans_ms", "ms"); ("api.residual_ms", "ms"); ("sim.events_per_txn", "count");
    ("sim.host_us_per_txn", "us");
    ("sim.events_per_s", "1/s"); ("sim.words_per_event", "words"); ("sim.alloc_drift", "ratio");
    ("net.msgs_per_txn", "count"); ("disk.reads_per_txn", "count");
    ("disk.writes_per_txn", "count"); ("disk.log_ios_per_txn", "count");
    ("fs.merge_frac", "ratio"); ("lock.requests_per_txn", "count"); ("lock.wait_frac", "ratio");
    ("lock.wait_ms", "ms"); ("lock.held_at_drain", "count"); ("deadlock.scans_per_ktxn", "count");
    ("deadlock.victims_per_ktxn", "count"); ("deadlock.victim_yield", "ratio");
    ("txn.prepares_per_txn", "count"); ("txn.prepare_ms", "ms"); ("txn.votes_ms", "ms");
    ("txn.commit_force_ms", "ms"); ("txn.phase2_ms", "ms"); ("proc.killed_per_ktxn", "count");
    ("repl.propagations_per_txn", "count"); ("repl.gaps_per_ktxn", "count");
    ("repl.local_read_frac", "ratio"); ("repl.recovery_ms", "ms");
    ("check.run_ms_per_seed", "ms"); ("check.checker_ms_per_seed", "ms");
    ("check.events_per_seed", "count"); ("check.seeds_per_s", "1/s");
    ("load.gen_lag_ms", "ms"); ("trace.overhead", "ratio"); ("outcome.fail_frac", "ratio");
    ("outcome.lost_updates", "count"); ("outcome.samples", "count") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]";
  prerr_endline ("workloads: " ^ String.concat " " (List.map (fun w -> w.W.name) W.all));
  exit 2

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None
  and spans = ref "" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | "--spans" :: v :: rest -> spans := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.find_opt (fun w -> w.W.name = !workload) W.all, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0. ->
    (* Derived seeds multiply the run seed; keep it small and non-negative. *)
    (w, seed land 0x3fff_ffff, seconds, trace = 1, !spans)
  | _ -> usage ()

(* Per-layer figures need fewer samples than the bounded end-to-end ones,
   so a traced run traces only the first few parts. *)
let traced_parts = 4

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let w, seed, seconds, trace, spans_path = parse () in
  let t0 = Unix.gettimeofday () in
  let parts = List.init w.W.parts (fun i -> W.run_part w ~seed i) in
  let traced =
    if not trace then []
    else
      List.init (min w.W.parts traced_parts) (fun i ->
          let sp = Spans.create () in
          let p = W.run_part ~spans:sp w ~seed i in
          if i = 0 && spans_path <> "" then Spans.write sp spans_path;
          p)
  in
  (* Part 0 is always run again, so the determinism check never passes
     for want of a repeat; the time left decides any further repeats. *)
  let rec fill acc j =
    if j > 0 && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else
      let i = j mod w.W.parts in
      fill ((i, W.run_part w ~seed i) :: acc) (j + 1)
  in
  let repeats = fill [] 0 in
  let deterministic =
    List.for_all
      (fun (i, p) -> Part.fingerprint p = Part.fingerprint (List.nth parts i))
      repeats
  in
  let host = parts @ List.map snd repeats in
  let metrics =
    if trace then W.per_layer ~parts ~host ~traced else W.end_to_end ~parts ~host
  in
  let correct =
    deterministic
    && List.for_all (fun p -> p.Part.ok) (host @ traced)
    && List.for_all (fun (_, v) -> Float.is_finite v) metrics
  in
  List.iter (fun p -> List.iter prerr_endline p.Part.notes) parts;
  Printf.eprintf "%s seed %d: %d parts, %d repeats (%s), %d latency samples, %.1f s\n" w.W.name
    seed w.W.parts (List.length repeats)
    (if deterministic then "identical" else "DIFFERENT")
    (List.length (W.latencies parts))
    (Unix.gettimeofday () -. t0);
  let metrics = List.sort compare metrics in
  List.iter
    (fun (n, v) -> Printf.eprintf "  %-28s %16.4f %s\n" n v (List.assoc n units))
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %.0f, \"failed\": %.0f, \"metrics\": {%s}}\n"
    correct (Part.total parts "offered") (W.failed parts)
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v)
              (List.assoc n units))
          metrics))
