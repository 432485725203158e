(* E1 — Figure 1: the lock compatibility matrix.
   E2 — §6.2: record locking latency, local vs remote, and the
        requesting-site lock cache ablation. *)

open Harness
module Mode = Locus_lock.Mode

let e1 () =
  let cell = function `Read_write -> "r/w" | `Read -> "read" | `None -> "no" in
  let rows =
    List.map
      (fun (row, cells) ->
        Mode.to_string row :: List.map (fun (_, v) -> cell v) cells)
      Mode.figure_1
  in
  Tables.print_table ~title:"E1 / Figure 1: transaction synchronization rules"
    ~columns:[ ""; "unix"; "shared"; "exclusive" ]
    rows;
  Tables.paper "unix/unix=r/w, unix-or-shared/shared=read, anything/exclusive=no"

(* Repeatedly lock ascending groups of bytes in a file (the paper's §6.2
   methodology) and sample the per-lock syscall latency. *)
let lock_latencies ~requester_site ~n_locks =
  let sim = fresh ~n_sites:2 () in
  let samples = ref [] in
  run_proc sim ~site:requester_site (fun env ->
      let c = Api.creat env "/f" ~vid:1 in
      Api.write_string env c (String.make 1024 'x');
      Api.commit_file env c;
      let e = K.engine (Api.cluster env) in
      for g = 0 to n_locks - 1 do
        Api.seek env c ~pos:(g * 8);
        let t0 = L.Engine.now e in
        (match Api.lock env c ~len:8 ~mode:M.Exclusive () with
        | Api.Granted -> ()
        | Api.Conflict _ -> failwith "unexpected conflict");
        samples := (L.Engine.now e - t0) :: !samples
      done);
  let xs = !samples in
  float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs) /. 1000.

let e2 () =
  let local = lock_latencies ~requester_site:1 ~n_locks:100 in
  let remote = lock_latencies ~requester_site:0 ~n_locks:100 in
  Tables.print_table ~title:"E2 / §6.2: record locking latency"
    ~columns:[ "case"; "measured"; "paper" ]
    [
      [ "local (requester at storage site)"; Tables.msf local; "~2 ms" ];
      [ "remote (cross-site request)"; Tables.msf remote; "~18 ms" ];
      [ "ratio"; Printf.sprintf "%.1fx" (remote /. local); "~9x" ];
    ];
  Tables.paper
    "750 instructions (1.5 ms) per local lock; remote ~18 ms, indistinguishable \
     from round-trip message cost";

  (* Ablation: the requesting-site lock cache (§5.1). Validating covered
     accesses locally vs re-asking the storage site on every read. *)
  let reads_time lock_cache =
    let config = { (K.Config.default ~n_sites:2) with K.Config.lock_cache } in
    let sim = fresh ~config ~n_sites:2 () in
    let elapsed = ref 0 in
    run_proc sim ~site:0 (fun env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.write_string env c (String.make 256 'x');
        Api.commit_file env c;
        Api.begin_trans env;
        Api.seek env c ~pos:0;
        (match Api.lock env c ~len:256 ~mode:M.Exclusive () with
        | Api.Granted -> ()
        | Api.Conflict _ -> failwith "conflict");
        let e = K.engine (Api.cluster env) in
        let t0 = L.Engine.now e in
        for g = 0 to 19 do
          ignore (Api.pread env c ~pos:(g * 8) ~len:8)
        done;
        elapsed := L.Engine.now e - t0;
        ignore (Api.end_trans env));
    float_of_int !elapsed /. 20_000.
  in
  let with_cache = reads_time true and without = reads_time false in
  Tables.print_table ~title:"E2b ablation: requesting-site lock cache (per covered read)"
    ~columns:[ "configuration"; "per-read cost" ]
    [
      [ "lock cache on (local validation)"; Tables.msf with_cache ];
      [ "lock cache off (revalidate at storage site)"; Tables.msf without ];
    ];
  Tables.paper "the local lock cache lets the kernel quickly validate each access";

  (* §5.2's further opportunity: prefetch the locked range with the grant
     and serve covered reads from the requesting site. *)
  let reads_time_prefetch prefetch =
    let config = { (K.Config.default ~n_sites:2) with K.Config.prefetch } in
    let sim = fresh ~config ~n_sites:2 () in
    let elapsed = ref 0 in
    run_proc sim ~site:0 (fun env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.write_string env c (String.make 256 'x');
        Api.commit_file env c;
        Api.begin_trans env;
        Api.seek env c ~pos:0;
        (match Api.lock env c ~len:256 ~mode:M.Exclusive () with
        | Api.Granted -> ()
        | Api.Conflict _ -> failwith "conflict");
        let e = K.engine (Api.cluster env) in
        let t0 = L.Engine.now e in
        for g = 0 to 19 do
          ignore (Api.pread env c ~pos:(g * 8) ~len:8)
        done;
        elapsed := L.Engine.now e - t0;
        ignore (Api.end_trans env));
    float_of_int !elapsed /. 20_000.
  in
  let no_prefetch = reads_time_prefetch false and prefetched = reads_time_prefetch true in
  Tables.print_table
    ~title:"E2c ablation: lock-grant data prefetch (§5.2, remote reads under a held lock)"
    ~columns:[ "configuration"; "per-read cost" ]
    [
      [ "no prefetch (every read crosses the net)"; Tables.msf no_prefetch ];
      [ "prefetch on grant (reads served locally)"; Tables.msf prefetched ];
      [ "speedup"; Printf.sprintf "%.0fx" (no_prefetch /. prefetched) ];
    ];
  Tables.paper
    "when a lock is requested, the page(s) containing the byte range can be      prefetched in anticipation of their subsequent use (§5.2)"
;

  (* §5.2's second opportunity: temporarily transfer lock management to a
     site making heavy use of it — dynamic lock placement with one
     directory shard and the default [Threshold 3] policy. *)
  let burst_cost migrate =
    let config = K.Config.default ~n_sites:2 in
    let config = if migrate then K.Config.with_shards ~shards:1 config else config in
    let sim = fresh ~config ~n_sites:2 () in
    let total = ref 0 in
    run_proc sim ~site:0 (fun env ->
        let c = Api.creat env "/f" ~vid:1 in
        Api.write_string env c (String.make 1024 'x');
        Api.commit_file env c;
        let e = K.engine (Api.cluster env) in
        let t0 = L.Engine.now e in
        for g = 0 to 29 do
          Api.seek env c ~pos:(g * 16);
          (match Api.lock env c ~len:16 ~mode:M.Exclusive () with
          | Api.Granted -> ()
          | Api.Conflict _ -> failwith "conflict");
          Api.seek env c ~pos:(g * 16);
          Api.unlock env c ~len:16
        done;
        total := L.Engine.now e - t0);
    float_of_int !total /. 30_000.
  in
  let plain = burst_cost false and migrated = burst_cost true in
  Tables.print_table
    ~title:
      "E2d ablation: lock-control migration (§5.2, 30 lock/unlock pairs from \
       one remote site)"
    ~columns:[ "configuration"; "per lock+unlock" ]
    [
      [ "authority stays at the storage site"; Tables.msf plain ];
      [ "authority migrates to the requester"; Tables.msf migrated ];
      [ "speedup"; Printf.sprintf "%.1fx" (plain /. migrated) ];
    ];
  Tables.paper
    "the storage site could temporarily transfer its ability to manage a group \
     of locks to another site, reducing overhead for co-located heavy users \
     (§5.2)"
