(* The record-transaction runner behind the oltp-open, hot-closed and
   failover-open workloads.

   Records are fixed-width decimal counters striped one file per site
   (file [i] on volume [i]). A transaction reads or increments 2-4
   Zipf-chosen records, mostly in its home site's stripe. The runner owns
   the whole transaction life cycle through public calls only: it spawns
   one [Api] process per transaction, awaits the process's exit through
   [Api.exit_of], and classifies every offered transaction, so the
   outcome classes always add up to what was offered. At drain it reads
   every record back through [Api] and compares it with the increments
   the runner saw commit. *)

module L = Locus_core.Locus
module Api = Locus_core.Api
module K = Locus_core.Kernel
module Engine = Locus_sim.Engine
module Stats = Locus_sim.Stats
module Prng = Locus_sim.Prng
module Otrace = Locus_otrace.Otrace
module Transport = Locus_net.Transport
module Arrival = Locus_load.Arrival
module Zipf = Locus_load.Zipf
module Opmix = Locus_load.Opmix
module Mode = Locus_lock.Mode

type loop =
  | Open of float  (** Poisson arrivals per virtual second *)
  | Closed of int  (** clients bound to each site, no think time *)

type shape = {
  loop : loop;
  sites : int;
  replicas : int;
  records_per_site : int;
  zipf_s : float;
  mix : Opmix.t;
  remote_frac : float;  (** share of ops that go to another site's stripe *)
  window_us : int;  (** arrivals (or submissions) stop after this *)
  crash_every_us : int;  (** 0 = no faults *)
  crash_down_us : int;
}

let rec_len = 16
let path_of i = Printf.sprintf "/bench/records%d" i
let encode v = Bytes.of_string (Printf.sprintf "%016d" v)
let decode s off = int_of_string (String.trim (String.sub s off rec_len))
let slo_us = 2_000_000

(* Bounds that turn a runaway into a reported failure instead of a hang:
   arrivals stop at the window, so a healthy run drains well within this
   much more virtual time and host time. *)
let drain_allowance_us = 600_000_000
let host_cap_s = 60.

type outcome = Pending | Committed | Aborted | Errored | Shed

type txn = {
  id : int;
  due : int;  (** arrival (open loop) or submission (closed loop), virtual µs *)
  ops : (int * Opmix.op) list;  (** (stripe, op) *)
  home : int;
  mutable site : int;  (** where its process ran *)
  mutable finished : int;
  mutable outcome : outcome;
  mutable exited : bool;
  mutable root : Spans.span option;  (** the ["txn"] span, when traced *)
}

type counts = {
  offered : int;
  committed : int;
  aborted : int;
  error : int;
  killed : int;  (** process ended with no outcome *)
  shed : int;  (** no live site to run at *)
  unfinished : int;  (** still running when a bound stopped the run *)
}

let counter_names =
  [ "net.msg"; "disk.io.read"; "disk.io.write"; "disk.io.log"; "commit.merge";
    "commit.direct"; "lock.requests"; "lock.waits"; "deadlock.scans";
    "deadlock.victims"; "2pc.prepares"; "replica.propagate"; "replica.gaps";
    "replica.local_reads" ]

let kernel_phases = [ "2pc.prepare"; "2pc.votes"; "commit.force"; "2pc.phase2" ]

type caller = { call : 'a. string -> (unit -> 'a) -> 'a }

let gen_txn sh prng zipf ~id ~home ~due =
  let ops =
    List.map
      (fun op ->
        let stripe =
          if sh.sites > 1 && Prng.float prng 1.0 < sh.remote_frac then
            (home + 1 + Prng.int prng (sh.sites - 1)) mod sh.sites
          else home
        in
        (stripe, op))
      (Opmix.gen_txn sh.mix prng zipf)
  in
  { id; due; ops; home; site = -1; finished = -1; outcome = Pending; exited = false; root = None }

(* One transaction's body. The outcome and its instant are stamped the
   moment [end_trans] returns: a commit's latency ends there, not after
   the closes, and a kill during the closes cannot erase it. *)
let run_txn c env sh tr ~now ~reads =
  let chans = Array.make sh.sites (-1) in
  let chan i =
    if chans.(i) < 0 then chans.(i) <- c.call "api.open" (fun () -> Api.open_file env (path_of i));
    chans.(i)
  in
  let read ch pos =
    incr reads;
    c.call "api.read" (fun () -> Api.pread env ch ~pos ~len:rec_len)
  in
  let lock ch pos mode =
    Api.seek env ch ~pos;
    ignore (c.call "api.lock" (fun () -> Api.lock env ch ~len:rec_len ~mode ()))
  in
  let outcome =
    match
      c.call "api.begin" (fun () -> Api.begin_trans env);
      List.iter
        (fun (stripe, op) ->
          let ch = chan stripe in
          match op with
          | Opmix.Read r ->
            lock ch (r * rec_len) Mode.Shared;
            ignore (read ch (r * rec_len))
          | Opmix.Update r ->
            let pos = r * rec_len in
            lock ch pos Mode.Exclusive;
            let v = decode (Bytes.to_string (read ch pos)) 0 in
            c.call "api.write" (fun () -> Api.pwrite env ch ~pos (encode (v + 1))))
        tr.ops;
      c.call "api.end_trans" (fun () -> Api.end_trans env)
    with
    | K.Committed -> Committed
    | K.Aborted -> Aborted
    | exception (Api.Error _ | Api.Process_failure _) -> Errored
  in
  tr.outcome <- outcome;
  tr.finished <- now ();
  Array.iter
    (fun ch ->
      if ch >= 0 then
        try c.call "api.close" (fun () -> Api.close env ch) with Api.Error _ -> ())
    chans

type state = {
  sh : shape;
  eng : Engine.t;
  cl : K.cluster;
  spans : Spans.t option;
  mutable offered : int;  (** arrival instants (open) or submissions (closed) *)
  mutable spawned : int;  (** transaction processes started *)
  mutable exits : int;  (** of those, exits seen through [Api.exit_of] *)
  mutable txns : txn list;  (** newest first *)
  mutable crashes : (int * int) list;  (** (virtual µs, victim) *)
  reads : int ref;
  mutable q1 : (float * int) option;  (** minor words and transactions so far *)
  mutable q3 : (float * int) option;
}

let vnow st () = float_of_int (Engine.now st.eng)

let caller st tr =
  match (st.spans, tr.root) with
  | Some sp, Some root ->
    {
      call =
        (fun name f ->
          Spans.with_span sp ~clock:Spans.Virtual ~now:(vnow st) ~parent:root.Spans.id
            ~txn:tr.id name f);
    }
  | _ -> { call = (fun _ f -> f ()) }

let live_site st home =
  let net = K.transport st.cl in
  let rec pick i =
    if i = st.sh.sites then None
    else
      let s = (home + i) mod st.sh.sites in
      if Transport.site_up net s then Some s else pick (i + 1)
  in
  pick 0

(* Build a cluster and load one file of zeroed counters per site;
   returns the sim drained at the arrival epoch. *)
let setup ~sites ~replicas ~records ~seed =
  let config =
    if replicas > 1 then K.Config.with_replication ~n_sites:sites ~factor:replicas
    else K.Config.default ~n_sites:sites
  in
  let sim = L.make ~seed ~config ~n_sites:sites () in
  let zeros = Bytes.make (records * rec_len) '0' in
  ignore
    (Api.spawn_process sim.L.cluster ~site:0 ~name:"bench-load" (fun env ->
         for i = 0 to sites - 1 do
           let c = Api.creat env (path_of i) ~vid:i in
           Api.pwrite env c ~pos:0 zeros;
           Api.close env c
         done));
  L.run sim;
  sim

(* A transaction due now. Allocation per transaction is sampled at the
   window's first and last quarter, to expose cost that grows with run
   length. *)
let new_txn st prng zipf ~t0 ~home =
  let at = Engine.now st.eng - t0 in
  let n = match st.txns with tr :: _ -> tr.id + 1 | [] -> 0 in
  if st.q1 = None && at >= st.sh.window_us / 4 then st.q1 <- Some (Gc.minor_words (), n);
  if st.q3 = None && at >= 3 * st.sh.window_us / 4 then st.q3 <- Some (Gc.minor_words (), n);
  let tr = gen_txn st.sh prng zipf ~id:n ~home ~due:(Engine.now st.eng) in
  st.txns <- tr :: st.txns;
  tr

(* The root ["txn"] span runs from the due instant to the transaction's
   last call; ["load.gen_lag"] is the part before the process started. *)
let start_process st tr ~site =
  (match st.spans with
  | Some sp ->
    tr.root <-
      Some
        (Spans.start sp ~clock:Spans.Virtual ~now:(float_of_int tr.due) ~parent:(-1)
           ~txn:tr.id "txn")
  | None -> ());
  tr.site <- site;
  st.spawned <- st.spawned + 1;
  let body env =
    (match (st.spans, tr.root) with
    | Some sp, Some root ->
      Spans.finish ~now:(vnow st ())
        (Spans.start sp ~clock:Spans.Virtual ~now:(float_of_int tr.due)
           ~parent:root.Spans.id ~txn:tr.id "load.gen_lag")
    | _ -> ());
    (* A kill unwinds through here too, at the instant of the kill. *)
    Fun.protect
      ~finally:(fun () ->
        if tr.finished < 0 then tr.finished <- Engine.now st.eng;
        Option.iter (fun root -> Spans.finish root ~now:(vnow st ())) tr.root)
      (fun () ->
        run_txn (caller st tr) env st.sh tr ~now:(fun () -> Engine.now st.eng) ~reads:st.reads)
  in
  Api.spawn_process st.cl ~site ~name:"bench-txn" body

(* Every transaction process is awaited here, through its exit ivar. *)
let await_exit st tr pid =
  Engine.await (Api.exit_of st.cl pid);
  st.exits <- st.exits + 1;
  tr.exited <- true

let open_loop st ~seed ~t0 ~rate zipf =
  let prng = Prng.create ~seed:(seed lxor 0x0b3e) in
  let arr = Arrival.create ~prng (Arrival.constant rate) in
  let rec arrivals from acc =
    let next = Arrival.next_after arr from in
    if next > st.sh.window_us then List.rev acc else arrivals next (next :: acc)
  in
  let dues = arrivals 0 [] in
  st.offered <- List.length dues;
  let rec arm = function
    | [] -> ()
    | due :: rest ->
      Engine.schedule ~delay:(t0 + due - Engine.now st.eng) st.eng (fun () ->
          let tr = new_txn st prng zipf ~t0 ~home:(Prng.int prng st.sh.sites) in
          (match live_site st tr.home with
          | None -> tr.outcome <- Shed
          | Some site ->
            let pid = start_process st tr ~site in
            ignore (Engine.spawn ~name:"bench-await" st.eng (fun () -> await_exit st tr pid)));
          arm rest)
  in
  arm dues

let closed_loop st ~seed ~t0 ~clients zipf =
  let prng = Prng.create ~seed:(seed lxor 0xc105) in
  for site = 0 to st.sh.sites - 1 do
    for c = 0 to clients - 1 do
      ignore
        (Engine.spawn ~name:(Printf.sprintf "bench-client-%d.%d" site c) st.eng (fun () ->
             while Engine.now st.eng < t0 + st.sh.window_us do
               st.offered <- st.offered + 1;
               let tr = new_txn st prng zipf ~t0 ~home:site in
               await_exit st tr (start_process st tr ~site)
             done))
    done
  done

let schedule_crashes st ~t0 =
  if st.sh.crash_every_us > 0 then begin
    let k = ref 0 in
    while (st.sh.crash_every_us / 2) + (!k * st.sh.crash_every_us) < st.sh.window_us do
      let at = (st.sh.crash_every_us / 2) + (!k * st.sh.crash_every_us) in
      let victim = 1 + (!k mod (st.sh.sites - 1)) in
      Engine.schedule ~delay:(t0 + at - Engine.now st.eng) st.eng (fun () ->
          st.crashes <- (Engine.now st.eng, victim) :: st.crashes;
          K.crash_site st.cl victim;
          Engine.schedule ~delay:st.sh.crash_down_us st.eng (fun () ->
              K.restart_site st.cl victim));
      incr k
    done
  end

(* Drain in one-virtual-second slices so the virtual deadline and the host
   cap are checked as the run goes. *)
let drive eng ~deadline =
  let cpu0 = Sys.time () in
  let rec go () =
    if Engine.pending_events eng = 0 then None
    else if Engine.now eng > deadline then Some "virtual deadline passed"
    else if Sys.time () -. cpu0 > host_cap_s then Some "host time cap passed"
    else begin
      Engine.run ~until:(Engine.now eng + 1_000_000) eng;
      go ()
    end
  in
  try go () with e -> Some (Printexc.to_string e)

(* The committed contents of every stripe file, read at its primary
   without taking locks: a lock left behind at drain must not hide what
   storage holds. *)
let audit st =
  Array.init st.sh.sites (fun i ->
      match K.lookup st.cl (path_of i) with
      | None -> Error "no such file"
      | Some fid ->
        let b = K.read_committed_oracle st.cl fid in
        Ok (Array.init (String.length b / rec_len) (fun r -> decode b (r * rec_len))))

(* Every transaction has ended once the run drains, so no lock should be
   left; one that is blocks its records for good. *)
let locks_held st =
  List.fold_left (fun n t -> n + Locus_lock.Lock_table.lock_count t) 0 (K.lock_tables st.cl)

(* A process that never exited died with its site if that site crashed
   while it ran: a crash drops its processes without filling their exit
   ivars. *)
let lost_in_crash st tr =
  (not tr.exited) && tr.site >= 0
  && List.exists (fun (at, v) -> v = tr.site && at >= tr.due) st.crashes

(* A transaction with no outcome was killed if its process exited (the
   deadlock resolver kills its victims) or died with its site; otherwise
   it is still waiting for something, which a drained run must not leave
   behind. *)
let classify st ~runaway =
  let killed tr = (not runaway) && (tr.exited || lost_in_crash st tr) in
  let count f = List.length (List.filter f st.txns) in
  {
    offered = st.offered;
    committed = count (fun tr -> tr.outcome = Committed);
    aborted = count (fun tr -> tr.outcome = Aborted);
    error = count (fun tr -> tr.outcome = Errored);
    killed = count (fun tr -> tr.outcome = Pending && killed tr);
    shed = count (fun tr -> tr.outcome = Shed);
    unfinished = count (fun tr -> tr.outcome = Pending && not (killed tr));
  }

let count_sum c = c.committed + c.aborted + c.error + c.killed + c.shed + c.unfinished

(* The outcome accounting of a drained run, from three independent
   tallies: [c.offered] counts arrival instants or submissions, [spawned]
   and [exits] count process starts and exit-ivar fills, and the classes
   of [c] come from each transaction's recorded outcome. Returns what
   fails to add up; [lost] is the number of processes that died with
   their site. *)
let accounting (c : counts) ~spawned ~exits ~lost =
  List.filter_map
    (fun (holds, problem) -> if holds then None else Some problem)
    [ (c.offered = spawned + c.shed, "offered <> processes started + shed");
      (exits + lost = spawned, "a process neither exited nor died with its site");
      (count_sum c = c.offered, "outcome classes do not add up to offered");
      (c.unfinished = 0, "transactions left unfinished") ]

(* Committed increments per record must all be in storage; increments of
   transactions whose outcome the client never learned may or may not be. *)
let durability st stored =
  let sh = st.sh in
  let committed = Array.init sh.sites (fun _ -> Array.make sh.records_per_site 0) in
  let unknown = Array.init sh.sites (fun _ -> Array.make sh.records_per_site 0) in
  List.iter
    (fun tr ->
      let into =
        match tr.outcome with
        | Committed -> Some committed
        | Pending | Errored -> Some unknown
        | Aborted | Shed -> None
      in
      match into with
      | None -> ()
      | Some a ->
        List.iter
          (function
            | s, Opmix.Update r -> a.(s).(r) <- a.(s).(r) + 1
            | _, Opmix.Read _ -> ())
          tr.ops)
    st.txns;
  let lost = ref 0 and phantom = ref 0 and unread = ref [] in
  Array.iteri
    (fun s file ->
      match file with
      | Ok v when Array.length v = sh.records_per_site ->
        Array.iteri
          (fun r x ->
            lost := !lost + max 0 (committed.(s).(r) - x);
            phantom := !phantom + max 0 (x - committed.(s).(r) - unknown.(s).(r)))
          v
      | Ok _ -> unread := Printf.sprintf "file %d: wrong length" s :: !unread
      | Error m -> unread := Printf.sprintf "file %d: %s" s m :: !unread)
    stored;
  (!lost, !phantom, List.rev !unread)

let recovery st =
  List.rev_map
    (fun (at, victim) ->
      let first =
        List.fold_left
          (fun acc tr ->
            if tr.outcome = Committed && tr.due > at
               && List.exists (fun (s, _) -> s = victim) tr.ops
            then min acc tr.finished
            else acc)
          max_int st.txns
      in
      (* A victim whose records never commit again counts as down until
         the drain. *)
      float_of_int (min first (Engine.now st.eng) - at) /. 1e3)
    st.crashes

(* Span sums over committed transactions: the virtual time spent in each
   kind of [Api] call, the whole sojourn (the ["txn"] root), and how late
   the generator started transactions. Means are taken after pooling. *)
let span_tally sp txns =
  let committed = Hashtbl.create 1024 in
  List.iter (fun tr -> if tr.outcome = Committed then Hashtbl.replace committed tr.id ()) txns;
  let sums = Hashtbl.create 16 in
  let add = Part.add sums in
  List.iter
    (fun (s : Spans.span) ->
      if s.Spans.name = "load.gen_lag" then begin
        add "span:load.gen_lag" (Spans.duration s);
        add "span:load.gen_lag#n" 1.
      end
      else if Hashtbl.mem committed s.Spans.txn then
        add ("span:" ^ s.Spans.name) (Spans.duration s))
    (Spans.spans sp);
  add "span:txn#n" (float_of_int (Hashtbl.length committed));
  List.of_seq (Hashtbl.to_seq sums)

let run ?spans sh ~seed =
  (* [live_mb] collects the heap first, so the set-up timed next does not
     pay for a major GC cycle the previous part left half done. *)
  let live0 = Part.live_mb () in
  let c0 = Sys.time () in
  let sim = setup ~sites:sh.sites ~replicas:sh.replicas ~records:sh.records_per_site ~seed in
  let setup_s = Sys.time () -. c0 in
  let eng = sim.L.engine in
  let st =
    { sh; eng; cl = sim.L.cluster; spans; offered = 0; spawned = 0; exits = 0; txns = [];
      crashes = []; reads = ref 0; q1 = None; q3 = None }
  in
  let otr =
    Option.map
      (fun _ ->
        let o = Otrace.create eng in
        K.set_otracer st.cl (Some o);
        o)
      spans
  in
  let stats = Engine.stats eng in
  let snap () = List.map (fun n -> (n, Stats.get stats n)) counter_names in
  let wait_snap () =
    match Stats.histogram stats "lock.wait_us" with
    | Some h -> Stats.Hist.snapshot h
    | None -> Stats.Hist.empty_snap
  in
  let t0 = Engine.now eng in
  let before = snap () and wait0 = wait_snap () in
  let ev0 = Engine.events_fired eng in
  let w0 = Gc.minor_words () in
  let cpu0 = Sys.time () in
  let zipf = Zipf.create ~s:sh.zipf_s ~n:sh.records_per_site () in
  (match sh.loop with
  | Open rate -> open_loop st ~seed ~t0 ~rate zipf
  | Closed clients -> closed_loop st ~seed ~t0 ~clients zipf);
  schedule_crashes st ~t0;
  let runaway = drive eng ~deadline:(t0 + sh.window_us + drain_allowance_us) in
  let cpu_s = Sys.time () -. cpu0 in
  let words = Gc.minor_words () -. w0 in
  let events = Engine.events_fired eng - ev0 in
  let counters =
    List.map2 (fun (n, a) (_, b) -> ("c:" ^ n, float_of_int (b - a))) before (snap ())
  in
  let wait = Stats.Hist.diff (wait_snap ()) wait0 in
  let live_mb = Part.live_mb () -. live0 in
  let c = classify st ~runaway:(runaway <> None) in
  let problems =
    accounting c ~spawned:st.spawned ~exits:st.exits
      ~lost:(List.length (List.filter (lost_in_crash st) st.txns))
  in
  let drift =
    match (st.q1, st.q3) with
    | Some (wq1, n1), Some (wq3, n3) when n1 > 0 && c.offered > n3 ->
      Quant.ratio
        ((w0 +. words -. wq3) /. float_of_int (c.offered - n3))
        ((wq1 -. w0) /. float_of_int n1)
    | _ -> 0.
  in
  let recovery_ms = recovery st in
  let lost, phantom, unread =
    if runaway <> None then (0, 0, [ "not audited" ]) else durability st (audit st)
  in
  let held = locks_held st in
  let latencies_us =
    List.filter_map
      (fun tr ->
        if tr.outcome = Committed then Some (float_of_int (tr.finished - tr.due)) else None)
      st.txns
  in
  let phases =
    match otr with
    | None -> []
    | Some o ->
      List.concat_map
        (fun name ->
          match Otrace.phase o name with
          | Some h ->
            [ ("phase:" ^ name, float_of_int (Stats.Hist.total h));
              ("phase:" ^ name ^ "#n", float_of_int (Stats.Hist.count h)) ]
          | None -> [])
        kernel_phases
  in
  let i = float_of_int in
  let last_end = List.fold_left (fun acc tr -> max acc (tr.finished - t0)) sh.window_us st.txns in
  {
    Part.tally =
      [ ("offered", i c.offered); ("committed", i c.committed); ("aborted", i c.aborted);
        ("error", i c.error); ("killed", i c.killed); ("shed", i c.shed);
        ("unfinished", i c.unfinished); ("lost_updates", i lost);
        ("virtual_s", i last_end /. 1e6);
        ("slo_commits", i (List.length (List.filter (fun l -> l <= i slo_us) latencies_us)));
        ("reads", i !(st.reads)); ("lock_wait_us", i (Stats.Hist.snap_total wait));
        ("lock_wait#n", i (Stats.Hist.snap_count wait)); ("events", i events);
        ("locks_held", i held) ]
      @ counters @ phases
      @ (match spans with Some sp -> span_tally sp st.txns | None -> [])
      |> List.sort compare;
    latencies_us;
    recovery_ms;
    setup_s;
    cpu_s;
    words;
    events;
    drift;
    live_mb;
    ok = runaway = None && problems = [] && unread = [] && phantom = 0;
    notes =
      [ Printf.sprintf
          "seed %d: offered %d = committed %d + aborted %d + error %d + killed %d + shed %d + \
           unfinished %d; %d committed increments lost, %d unaccounted, %d locks held at \
           drain%s%s%s%s"
          seed c.offered c.committed c.aborted c.error c.killed c.shed c.unfinished lost phantom
          held
          (if unread = [] then "" else "; records not read back: " ^ String.concat ", " unread)
          (if problems = [] then "" else "; ACCOUNTING: " ^ String.concat ", " problems)
          (match runaway with Some m -> "; runaway: " ^ m | None -> "")
          (if recovery_ms = [] then ""
           else
             "; recovery ms per crash: "
             ^ String.concat " " (List.map (Printf.sprintf "%.1f") recovery_ms)) ];
  }
