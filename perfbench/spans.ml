(* Benchmark-owned spans, kept in memory and written out at exit.

   A span is one call the benchmark made into a layer: a name, a start
   and an end on one clock, the span that caused it, and the transaction
   (or seed) it belongs to. Record-workload spans are timed on the
   simulator's virtual clock, checker spans on the host clock. *)

type clock = Virtual | Host

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  txn : int;
  clock : clock;
  start : float;  (** virtual µs, or host µs since the collector began *)
  mutable stop : float;
}

type t = { mutable next : int; mutable all : span list; host0 : float }

let create () = { next = 0; all = []; host0 = Unix.gettimeofday () }

let start t ~clock ~now ~parent ~txn name =
  let sp = { id = t.next; name; parent; txn; clock; start = now; stop = now } in
  t.next <- t.next + 1;
  t.all <- sp :: t.all;
  sp

let finish sp ~now = sp.stop <- now
let duration sp = sp.stop -. sp.start
let host_now t = (Unix.gettimeofday () -. t.host0) *. 1e6

(* [f] runs inside the span; the span closes even when [f] raises, which
   is how a killed transaction process unwinds. *)
let with_span t ~clock ~now ~parent ~txn name f =
  let sp = start t ~clock ~now:(now ()) ~parent ~txn name in
  Fun.protect ~finally:(fun () -> finish sp ~now:(now ())) f

let spans t = List.rev t.all

let write t path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"txn\":%d,\"clock\":%S,\
         \"start_us\":%.0f,\"end_us\":%.0f}\n"
        sp.id sp.name sp.parent sp.txn
        (match sp.clock with Virtual -> "virtual" | Host -> "host")
        sp.start sp.stop)
    (spans t);
  close_out oc
