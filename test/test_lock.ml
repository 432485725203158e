(* Mode compatibility (Figure 1) and the lock table. *)

module M = Locus_lock.Mode
module LT = Locus_lock.Lock_table

let fid = File_id.make ~vid:1 ~ino:1
let p1 = Pid.make ~origin:0 ~num:1
let p2 = Pid.make ~origin:0 ~num:2
let tx n = Owner.Transaction (Txid.make ~site:0 ~incarnation:1 ~seq:n)
let proc p = Owner.Process p
let br lo hi = Byte_range.v ~lo ~hi
let owner = Alcotest.testable Owner.pp Owner.equal

(* {1 Figure 1} *)

let test_figure1 () =
  let open M in
  Alcotest.(check bool) "unix/unix" true (access Unix_access Unix_access = `Read_write);
  Alcotest.(check bool) "unix/shared" true (access Unix_access Shared = `Read);
  Alcotest.(check bool) "shared/shared" true (access Shared Shared = `Read);
  Alcotest.(check bool) "unix/excl" true (access Unix_access Exclusive = `None);
  Alcotest.(check bool) "shared/excl" true (access Shared Exclusive = `None);
  Alcotest.(check bool) "excl/excl" true (access Exclusive Exclusive = `None);
  (* The matrix has 9 cells and is symmetric. *)
  Alcotest.(check int) "9 cells" 9
    (List.length (List.concat_map snd figure_1));
  List.iter
    (fun (row, cells) ->
      List.iter (fun (col, v) -> assert (access col row = v)) cells)
    figure_1

let test_compatibility () =
  Alcotest.(check bool) "sh/sh" true (M.compatible M.Shared M.Shared);
  Alcotest.(check bool) "sh/ex" false (M.compatible M.Shared M.Exclusive);
  Alcotest.(check bool) "ex/sh" false (M.compatible M.Exclusive M.Shared)

(* {1 Grants and conflicts} *)

let test_grant_conflict () =
  let t = LT.create fid in
  (match LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
           ~non_transaction:false with
  | `Granted -> ()
  | `Conflict _ -> Alcotest.fail "first grant");
  (match LT.request t ~owner:(tx 2) ~pid:p2 ~mode:M.Shared ~range:(br 5 15)
           ~non_transaction:false with
  | `Conflict [ o ] -> Alcotest.check owner "blocker" (tx 1) o
  | `Conflict _ | `Granted -> Alcotest.fail "expected single blocker");
  (* Disjoint is fine. *)
  match LT.request t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 10 20)
          ~non_transaction:false with
  | `Granted -> ()
  | `Conflict _ -> Alcotest.fail "disjoint grant"

let test_same_owner_compatible () =
  (* All processes of one transaction may lock the same record exclusively
     (§3.1). *)
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  match LT.request t ~owner:(tx 1) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
          ~non_transaction:false with
  | `Granted -> ()
  | `Conflict _ -> Alcotest.fail "same txn must not self-conflict"

let test_shared_readers () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Shared ~range:(br 0 10)
            ~non_transaction:false);
  (match LT.request t ~owner:(tx 2) ~pid:p2 ~mode:M.Shared ~range:(br 0 10)
           ~non_transaction:false with
  | `Granted -> ()
  | `Conflict _ -> Alcotest.fail "shared readers coexist");
  Alcotest.(check int) "two locks" 2 (LT.lock_count t)

let test_upgrade_downgrade () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Shared ~range:(br 0 10)
            ~non_transaction:false);
  (* Upgrade the middle: replaces the owner's coverage there. *)
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 4 6)
            ~non_transaction:false);
  Alcotest.(check bool) "write covered" true
    (LT.owner_covers t ~owner:(tx 1) ~range:(br 4 6) ~write:true);
  Alcotest.(check bool) "write not covered outside" false
    (LT.owner_covers t ~owner:(tx 1) ~range:(br 0 10) ~write:true);
  Alcotest.(check bool) "read still covered everywhere" true
    (LT.owner_covers t ~owner:(tx 1) ~range:(br 0 10) ~write:false);
  (* A transaction cannot weaken protection it holds (§3.3 rule 1):
     re-locking everything shared leaves the middle exclusive — otherwise
     its uncommitted write there would become readable before commit. *)
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Shared ~range:(br 0 10)
            ~non_transaction:false);
  Alcotest.(check bool) "txn downgrade refused" true
    (LT.owner_covers t ~owner:(tx 1) ~range:(br 4 6) ~write:true);
  (* A non-transaction process has no commit point and may downgrade. *)
  let t2 = LT.create fid in
  ignore (LT.request t2 ~owner:(proc p1) ~pid:p1 ~mode:M.Exclusive
            ~range:(br 0 10) ~non_transaction:false);
  ignore (LT.request t2 ~owner:(proc p1) ~pid:p1 ~mode:M.Shared
            ~range:(br 0 10) ~non_transaction:false);
  Alcotest.(check bool) "process downgraded" false
    (LT.owner_covers t2 ~owner:(proc p1) ~range:(br 0 10) ~write:true)

let test_unix_mode_rejected () =
  let t = LT.create fid in
  Alcotest.check_raises "no explicit unix locks"
    (Invalid_argument "Lock_table: Unix access is implicit, not a requestable mode")
    (fun () ->
      ignore
        (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Unix_access ~range:(br 0 1)
           ~non_transaction:false))

(* {1 Retention (2PL)} *)

let test_txn_unlock_retains () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  LT.unlock t ~owner:(tx 1) ~pid:p1 ~range:(br 0 10);
  (* Still blocks others... *)
  (match LT.request t ~owner:(tx 2) ~pid:p2 ~mode:M.Shared ~range:(br 0 5)
           ~non_transaction:false with
  | `Conflict _ -> ()
  | `Granted -> Alcotest.fail "retained lock must still block");
  Alcotest.(check (list (pair int int))) "retained range"
    [ (0, 10) ]
    (List.map (fun r -> (Byte_range.lo r, Byte_range.hi r))
       (LT.retained_ranges t (tx 1)));
  (* ...and can be reacquired by the transaction (another process). *)
  match LT.request t ~owner:(tx 1) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
          ~non_transaction:false with
  | `Granted -> ()
  | `Conflict _ -> Alcotest.fail "reacquire retained"

let test_nontxn_unlock_releases () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(proc p1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  LT.unlock t ~owner:(proc p1) ~pid:p1 ~range:(br 0 10);
  match LT.request t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
          ~non_transaction:false with
  | `Granted -> ()
  | `Conflict _ -> Alcotest.fail "non-transaction unlock must release"

let test_non_transaction_lock_mode () =
  (* §3.4: a non-transaction-mode lock held by a transaction is really
     released on unlock. *)
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:true);
  LT.unlock t ~owner:(tx 1) ~pid:p1 ~range:(br 0 10);
  match LT.request t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
          ~non_transaction:false with
  | `Granted -> ()
  | `Conflict _ -> Alcotest.fail "non-transaction lock must not be retained"

let test_partial_unlock_splits () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(proc p1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 30)
            ~non_transaction:false);
  LT.unlock t ~owner:(proc p1) ~pid:p1 ~range:(br 10 20);
  Alcotest.(check bool) "left kept" true
    (LT.owner_covers t ~owner:(proc p1) ~range:(br 0 10) ~write:true);
  Alcotest.(check bool) "middle gone" false
    (LT.owner_covers t ~owner:(proc p1) ~range:(br 10 20) ~write:true);
  Alcotest.(check bool) "right kept" true
    (LT.owner_covers t ~owner:(proc p1) ~range:(br 20 30) ~write:true)

(* {1 Queueing} *)

let test_queue_grant_on_release () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  let granted = ref false in
  ignore
    (LT.enqueue t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> granted := ok));
  Alcotest.(check bool) "still waiting" false !granted;
  Alcotest.(check int) "one waiter" 1 (LT.waiting t);
  LT.release_owner t (tx 1);
  Alcotest.(check bool) "granted on release" true !granted;
  Alcotest.(check int) "queue drained" 0 (LT.waiting t)

let test_queue_no_overtake_same_range () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  let got = ref [] in
  ignore
    (LT.enqueue t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> if ok then got := 2 :: !got));
  ignore
    (LT.enqueue t ~owner:(tx 3) ~pid:p2 ~mode:M.Shared ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> if ok then got := 3 :: !got));
  LT.release_owner t (tx 1);
  (* tx2 (exclusive) granted; tx3 must not overtake it even though shared
     would have been compatible with nothing-held. *)
  Alcotest.(check (list int)) "fifo" [ 2 ] !got;
  LT.release_owner t (tx 2);
  Alcotest.(check (list int)) "then tx3" [ 3; 2 ] !got

let test_queue_overtake_disjoint () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  let got = ref [] in
  ignore
    (LT.enqueue t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> if ok then got := 2 :: !got));
  (* Disjoint range: may be granted immediately despite the earlier
     waiter. *)
  ignore
    (LT.enqueue t ~owner:(tx 3) ~pid:p2 ~mode:M.Exclusive ~range:(br 50 60)
       ~non_transaction:false ~notify:(fun ok -> if ok then got := 3 :: !got));
  Alcotest.(check (list int)) "disjoint overtakes" [ 3 ] !got

let test_cancel () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  let notifications = ref [] in
  let w =
    LT.enqueue t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
      ~non_transaction:false ~notify:(fun ok -> notifications := ok :: !notifications)
  in
  LT.cancel t w;
  Alcotest.(check (list bool)) "cancel notifies false" [ false ] !notifications;
  LT.release_owner t (tx 1);
  Alcotest.(check (list bool)) "no grant after cancel" [ false ] !notifications

let test_cancel_owner () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  let n2 = ref None and n3 = ref None in
  ignore
    (LT.enqueue t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> n2 := Some ok));
  ignore
    (LT.enqueue t ~owner:(tx 3) ~pid:p2 ~mode:M.Shared ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> n3 := Some ok));
  LT.cancel_owner t (tx 2);
  Alcotest.(check (option bool)) "tx2 cancelled" (Some false) !n2;
  LT.release_owner t (tx 1);
  Alcotest.(check (option bool)) "tx3 eventually granted" (Some true) !n3

(* {1 Access validation} *)

let test_may_read_write () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Shared ~range:(br 0 10)
            ~non_transaction:false);
  Alcotest.(check bool) "others may read under shared" true
    (LT.may_read t ~reader:(proc p2) ~range:(br 0 10));
  Alcotest.(check bool) "others may not write under shared" false
    (LT.may_write t ~writer:(proc p2) ~range:(br 5 6));
  Alcotest.(check bool) "disjoint write fine" true
    (LT.may_write t ~writer:(proc p2) ~range:(br 20 30));
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  Alcotest.(check bool) "no read under exclusive" false
    (LT.may_read t ~reader:(proc p2) ~range:(br 0 10));
  Alcotest.(check bool) "owner itself reads" true
    (LT.may_read t ~reader:(tx 1) ~range:(br 0 10))

let test_waits_for () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  ignore
    (LT.enqueue t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun _ -> ()));
  ignore
    (LT.enqueue t ~owner:(tx 3) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun _ -> ()));
  match LT.waits_for t with
  | [ (w2, b2); (w3, b3) ] ->
    Alcotest.check owner "tx2 waits" (tx 2) w2;
    Alcotest.(check (list owner)) "on tx1" [ tx 1 ] b2;
    Alcotest.check owner "tx3 waits" (tx 3) w3;
    (* tx3 waits on the lock holder and on the earlier waiter. *)
    Alcotest.(check (list owner)) "on tx1+tx2" [ tx 1; tx 2 ]
      (List.sort Owner.compare b3)
  | _ -> Alcotest.fail "expected two wait entries"

(* Gray's conversion rule: T1 holds S(r) with T3, T2 queues X(r) behind
   both, then T1 asks X(r). T2 is blocked on T1's own S lock, so queueing
   T1 behind T2 would deadlock the pair; once T3 leaves, T1 converts
   first and the wait-for graph never shows T1 -> T2. *)
let test_conversion_first () =
  let t = LT.create fid in
  let s_lock o =
    ignore (LT.request t ~owner:o ~pid:p1 ~mode:M.Shared ~range:(br 0 10)
              ~non_transaction:false)
  in
  s_lock (tx 1);
  s_lock (tx 3);
  let t2 = ref None and t1 = ref None in
  ignore
    (LT.enqueue t ~owner:(tx 2) ~pid:p2 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> t2 := Some ok));
  ignore
    (LT.enqueue t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
       ~non_transaction:false ~notify:(fun ok -> t1 := Some ok));
  Alcotest.(check (option bool)) "T1 waits for T3" None !t1;
  let blockers_of o =
    List.concat_map (fun (w, bs) -> if Owner.equal w o then bs else [])
      (LT.waits_for t)
  in
  Alcotest.(check (list owner)) "T1 waits on T3 only, not on T2" [ tx 3 ]
    (blockers_of (tx 1));
  Alcotest.(check (list owner)) "T2 waits on both S holders" [ tx 1; tx 3 ]
    (blockers_of (tx 2));
  LT.release_owner t (tx 3);
  Alcotest.(check (option bool)) "T1 converts to X" (Some true) !t1;
  Alcotest.(check (option bool)) "T2 still waits" None !t2;
  Alcotest.(check bool) "no T1 -> T2 edge" false
    (List.exists (Owner.equal (tx 2)) (blockers_of (tx 1)));
  Alcotest.(check (list owner)) "T2 now waits on T1" [ tx 1 ] (blockers_of (tx 2));
  LT.release_owner t (tx 1);
  Alcotest.(check (option bool)) "then T2" (Some true) !t2

let test_release_process () =
  let t = LT.create fid in
  ignore (LT.request t ~owner:(proc p1) ~pid:p1 ~mode:M.Exclusive ~range:(br 0 10)
            ~non_transaction:false);
  ignore (LT.request t ~owner:(tx 1) ~pid:p1 ~mode:M.Exclusive ~range:(br 20 30)
            ~non_transaction:false);
  LT.release_process t p1;
  Alcotest.(check bool) "process lock dropped" true
    (LT.may_write t ~writer:(proc p2) ~range:(br 0 10));
  Alcotest.(check bool) "transaction lock survives member exit" false
    (LT.may_write t ~writer:(proc p2) ~range:(br 20 30))

(* {1 Property: the lock table never grants incompatible overlaps} *)

let prop_no_incompatible_grants =
  let arb_op =
    QCheck.(
      quad (int_bound 3 (* owner *)) (int_bound 50 (* lo *))
        (int_range 1 20 (* len *)) bool (* exclusive? *))
  in
  QCheck.Test.make ~name:"granted locks are pairwise compatible" ~count:300
    QCheck.(list arb_op)
    (fun ops ->
      let t = LT.create fid in
      List.iter
        (fun (o, lo, len, excl) ->
          let mode = if excl then M.Exclusive else M.Shared in
          ignore
            (LT.request t ~owner:(tx o) ~pid:p1 ~mode
               ~range:(Byte_range.of_pos_len ~pos:lo ~len)
               ~non_transaction:false))
        ops;
      let locks = LT.locks t in
      List.for_all
        (fun (a : LT.lock) ->
          List.for_all
            (fun (b : LT.lock) ->
              a == b
              || Owner.equal a.LT.owner b.LT.owner
              || (not (Byte_range.overlaps a.LT.range b.LT.range))
              || M.compatible a.LT.mode b.LT.mode)
            locks)
        locks)

let suite =
  [
    ( "lock.mode",
      [
        Alcotest.test_case "figure 1" `Quick test_figure1;
        Alcotest.test_case "compatibility" `Quick test_compatibility;
      ] );
    ( "lock.table",
      [
        Alcotest.test_case "grant/conflict" `Quick test_grant_conflict;
        Alcotest.test_case "same owner" `Quick test_same_owner_compatible;
        Alcotest.test_case "shared readers" `Quick test_shared_readers;
        Alcotest.test_case "upgrade/downgrade" `Quick test_upgrade_downgrade;
        Alcotest.test_case "unix rejected" `Quick test_unix_mode_rejected;
        Alcotest.test_case "txn unlock retains" `Quick test_txn_unlock_retains;
        Alcotest.test_case "non-txn unlock releases" `Quick test_nontxn_unlock_releases;
        Alcotest.test_case "non-transaction lock mode" `Quick
          test_non_transaction_lock_mode;
        Alcotest.test_case "partial unlock" `Quick test_partial_unlock_splits;
        Alcotest.test_case "queue grant" `Quick test_queue_grant_on_release;
        Alcotest.test_case "no overtake" `Quick test_queue_no_overtake_same_range;
        Alcotest.test_case "disjoint overtakes" `Quick test_queue_overtake_disjoint;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "cancel owner" `Quick test_cancel_owner;
        Alcotest.test_case "may read/write" `Quick test_may_read_write;
        Alcotest.test_case "waits_for" `Quick test_waits_for;
        Alcotest.test_case "release process" `Quick test_release_process;
        Alcotest.test_case "conversion first" `Quick test_conversion_first;
        QCheck_alcotest.to_alcotest prop_no_incompatible_grants;
      ] );
  ]

(* Appended: model-based testing of the lock table against a per-byte
   reference implementation. *)

module Model = struct
  (* byte -> (owner, exclusive?) list; same-owner entries replaced. *)
  type t = (int, (Owner.t * bool) list) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let entries m b = Option.value (Hashtbl.find_opt m b) ~default:[]

  let compatible_at m b ~owner ~excl =
    List.for_all
      (fun (o, e) -> Owner.equal o owner || (not e && not excl))
      (entries m b)

  let request m ~owner ~excl lo hi =
    let ok = ref true in
    for b = lo to hi - 1 do
      if not (compatible_at m b ~owner ~excl) then ok := false
    done;
    if !ok then
      for b = lo to hi - 1 do
        (* Transactions never weaken held protection (§3.3 rule 1). *)
        let held_excl =
          List.exists (fun (o, e) -> Owner.equal o owner && e) (entries m b)
        in
        let excl = excl || (Owner.is_transaction owner && held_excl) in
        Hashtbl.replace m b
          ((owner, excl)
          :: List.filter (fun (o, _) -> not (Owner.equal o owner)) (entries m b))
      done;
    !ok

  (* Non-transaction owner unlock; transactions retain so the model keeps
     their bytes. *)
  let unlock m ~owner lo hi =
    if not (Owner.is_transaction owner) then
      for b = lo to hi - 1 do
        Hashtbl.replace m b
          (List.filter (fun (o, _) -> not (Owner.equal o owner)) (entries m b))
      done

  let release m ~owner =
    Hashtbl.iter
      (fun b es ->
        Hashtbl.replace m b
          (List.filter (fun (o, _) -> not (Owner.equal o owner)) es))
      (Hashtbl.copy m)

  let may_read m ~reader lo hi =
    let ok = ref true in
    for b = lo to hi - 1 do
      if not (List.for_all (fun (o, e) -> Owner.equal o reader || not e) (entries m b))
      then ok := false
    done;
    !ok
end

type model_op =
  | Op_request of int * bool * int * int
  | Op_unlock of int * int * int
  | Op_release of int
  | Op_check_read of int * int * int

let gen_model_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun (o, e, lo, len) -> Op_request (o, e, lo mod 40, 1 + (len mod 12)))
             (tup4 (int_bound 5) bool small_nat small_nat));
        (2, map (fun (o, lo, len) -> Op_unlock (o, lo mod 40, 1 + (len mod 12)))
             (tup3 (int_bound 5) small_nat small_nat));
        (1, map (fun o -> Op_release o) (int_bound 5));
        (2, map (fun (o, lo, len) -> Op_check_read (o, lo mod 40, 1 + (len mod 12)))
             (tup3 (int_bound 5) small_nat small_nat));
      ])

let owner_of i =
  (* Mix transactions and plain processes. *)
  if i mod 2 = 0 then tx i else proc (Pid.make ~origin:0 ~num:i)

let prop_lock_table_matches_model =
  QCheck.Test.make ~name:"lock table matches per-byte model" ~count:400
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_model_op))
    (fun ops ->
      let t = LT.create fid in
      let m = Model.create () in
      List.for_all
        (fun op ->
          match op with
          | Op_request (o, excl, lo, len) ->
            let owner = owner_of o in
            let range = Byte_range.of_pos_len ~pos:lo ~len in
            let mode = if excl then M.Exclusive else M.Shared in
            let real =
              match LT.request t ~owner ~pid:p1 ~mode ~range ~non_transaction:false with
              | `Granted -> true
              | `Conflict _ -> false
            in
            let expected = Model.request m ~owner ~excl lo (lo + len) in
            real = expected
          | Op_unlock (o, lo, len) ->
            let owner = owner_of o in
            LT.unlock t ~owner ~pid:p1 ~range:(Byte_range.of_pos_len ~pos:lo ~len);
            Model.unlock m ~owner lo (lo + len);
            true
          | Op_release o ->
            let owner = owner_of o in
            LT.release_owner t owner;
            Model.release m ~owner;
            true
          | Op_check_read (o, lo, len) ->
            let reader = owner_of o in
            let range = Byte_range.of_pos_len ~pos:lo ~len in
            LT.may_read t ~reader ~range = Model.may_read m ~reader lo (lo + len))
        ops)

let suite =
  suite
  @ [
      ( "lock.model",
        [ QCheck_alcotest.to_alcotest prop_lock_table_matches_model ] );
    ]
