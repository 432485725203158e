(* Transaction substrates: ids, log records, coordinator log, participant
   state, the active-transaction registry. *)

module E = Engine
module V = Locus_disk.Volume
module C = Locus_disk.Cache
module FS = Locus_fs.Filestore
module LR = Locus_txn.Log_record
module CL = Locus_txn.Coord_log
module P = Locus_txn.Participant
module TS = Locus_txn.Txn_state

let txid n = Txid.make ~site:0 ~incarnation:1 ~seq:n
let fid n = File_id.make ~vid:1 ~ino:n

let in_sim f =
  let e = E.create () in
  let result = ref None in
  ignore (E.spawn e (fun () -> result := Some (f e)));
  E.run e;
  Option.get !result

(* {1 Txid} *)

let test_txid () =
  let a = txid 1 in
  Alcotest.(check bool) "equal" true (Txid.equal a (txid 1));
  Alcotest.(check bool) "distinct seq" false (Txid.equal a (txid 2));
  Alcotest.(check bool) "distinct incarnation" false
    (Txid.equal a (Txid.make ~site:0 ~incarnation:2 ~seq:1));
  Alcotest.(check (option string)) "round trip" (Some (Txid.to_string a))
    (Option.map Txid.to_string (Txid.of_string (Txid.to_string a)));
  Alcotest.(check (option string)) "reject garbage" None
    (Option.map Txid.to_string (Txid.of_string "nope"))

(* {1 Log records} *)

let test_log_record_roundtrip () =
  let coord =
    LR.Coordinator { LR.txid = txid 3; files = [ (fid 1, 0); (fid 2, 1) ]; status = LR.Unknown }
  in
  (match LR.decode (LR.encode coord) with
  | Some (LR.Coordinator c) ->
    Alcotest.(check bool) "txid" true (Txid.equal c.LR.txid (txid 3));
    Alcotest.(check int) "files" 2 (List.length c.LR.files)
  | _ -> Alcotest.fail "coordinator roundtrip");
  let prep =
    LR.Prepare { LR.txid = txid 4; coordinator_site = 2; intentions = []; locked = [ fid 1 ] }
  in
  (match LR.decode (LR.encode prep) with
  | Some (LR.Prepare p) -> Alcotest.(check int) "coord site" 2 p.LR.coordinator_site
  | _ -> Alcotest.fail "prepare roundtrip");
  Alcotest.(check bool) "garbage rejected" true (LR.decode "junk" = None)

(* {1 Coordinator log} *)

let test_coord_log_lifecycle () =
  in_sim (fun e ->
      let vol = V.create e ~vid:0 () in
      let cl = CL.create vol in
      CL.begin_commit cl ~txid:(txid 1) ~files:[ (fid 1, 1) ];
      Alcotest.(check bool) "unknown" true (CL.outcome cl (txid 1) = Some LR.Unknown);
      CL.decide cl ~txid:(txid 1) LR.Committed;
      Alcotest.(check bool) "committed" true (CL.outcome cl (txid 1) = Some LR.Committed);
      Alcotest.(check int) "pending" 1 (List.length (CL.pending cl));
      CL.finished cl ~txid:(txid 1);
      Alcotest.(check bool) "gone" true (CL.outcome cl (txid 1) = None);
      Alcotest.(check int) "none pending" 0 (List.length (CL.pending cl)))

let test_coord_log_scan_rebuilds () =
  in_sim (fun e ->
      let vol = V.create e ~vid:0 () in
      let cl = CL.create vol in
      CL.begin_commit cl ~txid:(txid 1) ~files:[ (fid 1, 1) ];
      CL.decide cl ~txid:(txid 1) LR.Committed;
      CL.begin_commit cl ~txid:(txid 2) ~files:[ (fid 2, 1) ];
      (* "Crash": a fresh Coord_log over the same volume (volatile index
         lost, durable records kept). *)
      let cl2 = CL.create vol in
      Alcotest.(check bool) "index empty before scan" true (CL.pending cl2 = []);
      let records = CL.scan cl2 in
      Alcotest.(check int) "both records found" 2 (List.length records);
      Alcotest.(check bool) "committed survives" true
        (CL.outcome cl2 (txid 1) = Some LR.Committed);
      Alcotest.(check bool) "unknown survives" true
        (CL.outcome cl2 (txid 2) = Some LR.Unknown))

(* {1 Participant} *)

let with_participant f =
  in_sim (fun e ->
      let cache = C.create e in
      let store = FS.create e ~cache in
      let vol = V.create e ~vid:1 ~page_size:64 () in
      FS.mount store vol;
      let part = P.create store in
      f e store vol part)

let test_participant_prepare_commit () =
  with_participant (fun _e store vol part ->
      let f1 = FS.create_file store ~vid:1 in
      FS.open_file store f1;
      FS.write store f1 ~owner:(Owner.Transaction (txid 1)) ~pos:0
        (Bytes.of_string "money");
      let logs_before = V.io_log_writes vol in
      Alcotest.(check bool) "vote yes" true
        (P.prepare part ~txid:(txid 1) ~coordinator_site:0 ~files:[ f1 ]
        = P.Prepared);
      (* One prepare-log record for the (single) volume. *)
      Alcotest.(check int) "one log write" (logs_before + 1) (V.io_log_writes vol);
      Alcotest.(check bool) "prepared" true (P.is_prepared part (txid 1));
      P.commit part ~txid:(txid 1);
      Alcotest.(check bool) "no longer prepared" false (P.is_prepared part (txid 1));
      Alcotest.(check string) "durable" "money"
        (Bytes.to_string (FS.read_committed store f1 ~pos:0 ~len:5));
      (* The prepare record is discarded after commit. *)
      let live_preps =
        List.filter (fun (_, tag, _) -> tag = LR.prepare_tag) (V.log_records vol)
      in
      Alcotest.(check int) "log cleaned" 0 (List.length live_preps))

let test_participant_read_only_file () =
  with_participant (fun _e store _vol part ->
      let f1 = FS.create_file store ~vid:1 in
      FS.open_file store f1;
      (* The transaction only read the file: prepare votes read-only
         without writing any intentions, and keeps nothing prepared — not
         even an empty intention on the file. *)
      Alcotest.(check bool) "vote" true
        (P.prepare part ~txid:(txid 1) ~coordinator_site:0 ~files:[ f1 ]
        = P.Read_only);
      Alcotest.(check int) "no intentions" 0
        (List.length (P.prepared_intentions part (txid 1)));
      Alcotest.(check bool) "not prepared" false (P.is_prepared part (txid 1));
      Alcotest.(check int) "no empty intention on the file" 0
        (List.length (FS.prepared_intentions store f1));
      P.commit part ~txid:(txid 1))

let test_participant_abort_prepared () =
  with_participant (fun _e store _vol part ->
      let f1 = FS.create_file store ~vid:1 in
      FS.open_file store f1;
      FS.write store f1 ~owner:(Owner.Transaction (txid 1)) ~pos:0
        (Bytes.of_string "nope!");
      ignore (P.prepare part ~txid:(txid 1) ~coordinator_site:0 ~files:[ f1 ]);
      P.abort part ~txid:(txid 1);
      Alcotest.(check int) "size unchanged" 0 (FS.committed_size store f1);
      Alcotest.(check string) "rolled back volatile too" "\000"
        (Bytes.to_string (FS.read store f1 ~pos:0 ~len:1)))

let test_participant_commit_idempotent () =
  with_participant (fun _e store _vol part ->
      let f1 = FS.create_file store ~vid:1 in
      FS.open_file store f1;
      FS.write store f1 ~owner:(Owner.Transaction (txid 1)) ~pos:0
        (Bytes.of_string "once!");
      ignore (P.prepare part ~txid:(txid 1) ~coordinator_site:0 ~files:[ f1 ]);
      P.commit part ~txid:(txid 1);
      P.commit part ~txid:(txid 1) (* duplicate message *);
      P.abort part ~txid:(txid 1) (* stale abort is also harmless *);
      Alcotest.(check string) "exactly once" "once!"
        (Bytes.to_string (FS.read_committed store f1 ~pos:0 ~len:5)))

let test_participant_recover () =
  with_participant (fun _e store _vol part ->
      let f1 = FS.create_file store ~vid:1 in
      FS.open_file store f1;
      FS.write store f1 ~owner:(Owner.Transaction (txid 1)) ~pos:0
        (Bytes.of_string "redo!");
      ignore (P.prepare part ~txid:(txid 1) ~coordinator_site:7 ~files:[ f1 ]);
      (* Crash: volatile participant + filestore state lost. *)
      P.crash part;
      FS.crash store;
      let in_doubt = P.recover part in
      Alcotest.(check (list (pair string int))) "in doubt with coordinator"
        [ (Txid.to_string (txid 1), 7) ]
        (List.map (fun (tx, s) -> (Txid.to_string tx, s)) in_doubt);
      (* Outcome arrives: commit completes purely from the log. *)
      P.commit part ~txid:(txid 1);
      FS.open_file store f1;
      Alcotest.(check string) "redone" "redo!"
        (Bytes.to_string (FS.read_committed store f1 ~pos:0 ~len:5)))

let test_participant_per_file_log_ablation () =
  with_participant (fun _e store vol part ->
      P.set_prepare_log_per_file part true;
      let f1 = FS.create_file store ~vid:1 in
      let f2 = FS.create_file store ~vid:1 in
      FS.open_file store f1;
      FS.open_file store f2;
      let o = Owner.Transaction (txid 1) in
      FS.write store f1 ~owner:o ~pos:0 (Bytes.of_string "a");
      FS.write store f2 ~owner:o ~pos:0 (Bytes.of_string "b");
      let logs_before = V.io_log_writes vol in
      ignore (P.prepare part ~txid:(txid 1) ~coordinator_site:0 ~files:[ f1; f2 ]);
      (* Footnote 10: one record per file instead of one per volume. *)
      Alcotest.(check int) "two log writes" (logs_before + 2) (V.io_log_writes vol);
      P.commit part ~txid:(txid 1))

(* {1 Txn_state} *)

let test_txn_state () =
  let ts = TS.create () in
  let top = Pid.make ~origin:0 ~num:1 in
  let txn = TS.start ts ~txid:(txid 1) ~top_pid:top in
  Alcotest.(check int) "one member" 1 txn.TS.live_members;
  TS.member_joined ts (txid 1);
  TS.member_joined ts (txid 1);
  TS.member_exited ts (txid 1);
  Alcotest.(check int) "joins/exits" 2 txn.TS.live_members;
  TS.merge_files txn [ (fid 1, 0); (fid 2, 1) ];
  TS.merge_files txn [ (fid 1, 0); (fid 3, 1) ];
  Alcotest.(check int) "deduplicated merge" 3 (List.length txn.TS.file_list);
  (* Migration: release + adopt. *)
  (match TS.release ts (txid 1) with
  | Some t -> TS.adopt ts t
  | None -> Alcotest.fail "release");
  Alcotest.(check bool) "found after adopt" true (TS.find ts (txid 1) <> None);
  TS.remove ts (txid 1);
  Alcotest.(check (list string)) "empty" []
    (List.map (fun (t : TS.txn) -> Txid.to_string t.TS.txid) (TS.active ts))

let suite =
  [
    ( "txn.ids+records",
      [
        Alcotest.test_case "txid" `Quick test_txid;
        Alcotest.test_case "log record roundtrip" `Quick test_log_record_roundtrip;
      ] );
    ( "txn.coord_log",
      [
        Alcotest.test_case "lifecycle" `Quick test_coord_log_lifecycle;
        Alcotest.test_case "scan rebuilds" `Quick test_coord_log_scan_rebuilds;
      ] );
    ( "txn.participant",
      [
        Alcotest.test_case "prepare/commit" `Quick test_participant_prepare_commit;
        Alcotest.test_case "read-only file" `Quick test_participant_read_only_file;
        Alcotest.test_case "abort prepared" `Quick test_participant_abort_prepared;
        Alcotest.test_case "commit idempotent" `Quick test_participant_commit_idempotent;
        Alcotest.test_case "recover" `Quick test_participant_recover;
        Alcotest.test_case "per-file log (fn 10)" `Quick
          test_participant_per_file_log_ablation;
      ] );
    ( "txn.state",
      [ Alcotest.test_case "registry" `Quick test_txn_state ] );
  ]
