(* One part of a run: a single simulation (or one block of checker seeds)
   and what it measured. A run pools a fixed number of parts, so its
   virtual figures are exact for the seed; parts repeated to fill the
   host-time budget only add host samples. *)

type t = {
  tally : (string * float) list;
      (** additive totals: outcome counts, kernel counters, span sums.
          Keys starting with ["host:"] are host-clock figures. *)
  latencies_us : float list;  (** committed transactions, raw samples *)
  recovery_ms : float list;  (** one per injected crash *)
  setup_s : float;
      (** host CPU of the part's set-up: building its cluster and loading
          its records, or generating its checker seeds' plan *)
  cpu_s : float;  (** host CPU of the measured window *)
  words : float;  (** minor words allocated in the measured window *)
  events : int;  (** engine events in the measured window *)
  drift : float;  (** words per transaction, last quarter / first quarter *)
  live_mb : float;  (** live heap the part added by its drain *)
  ok : bool;  (** outcome classes add up and the output checks passed *)
  notes : string list;  (** human-readable lines for stderr *)
}

(* Live heap after a full collection, in MB. *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Add [v] to [key] of a tally under construction. *)
let add sums key v =
  Hashtbl.replace sums key (v +. Option.value ~default:0. (Hashtbl.find_opt sums key))

let get t key = Option.value ~default:0. (List.assoc_opt key t.tally)

(* Pointwise sum of the tallies of [parts]. *)
let total parts key = List.fold_left (fun acc p -> acc +. get p key) 0. parts

(* Everything that must repeat exactly when a part is run again with the
   same seed: every virtual figure and count. *)
let fingerprint t =
  let virtual_tally =
    List.filter (fun (k, _) -> not (String.starts_with ~prefix:"host:" k)) t.tally
  in
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) virtual_tally
    @ List.map (Printf.sprintf "%h") (t.latencies_us @ t.recovery_ms))
