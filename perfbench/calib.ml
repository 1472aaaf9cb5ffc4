(** Host-speed calibration. A host shared with other tenants drifts in
    speed by tens of percent over tens of seconds, and every host time of
    a run drifts with it. A fixed loop of hash-table, allocation and
    integer work, independent of the program under test, runs in short
    slices ({!run}) through every round's measured loop; {!scale} turns a
    host time measured in this run into the time on a host where one
    loop iteration takes [nominal_ns]. *)

let nominal_ns = 125.0
let iterations = 10_000
let total_ns = ref 0
let total_iterations = ref 0

let run () =
  let t0 = Span.now_ns () in
  let h = Hashtbl.create 4096 in
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land 0x3ffffff;
    Hashtbl.replace h (!x land 4095) (Array.make 4 i);
    match Hashtbl.find_opt h (i land 4095) with
    | Some a -> acc := !acc + a.(0)
    | None -> incr acc
  done;
  ignore (Sys.opaque_identity !acc : int);
  total_ns := !total_ns + (Span.now_ns () - t0);
  total_iterations := !total_iterations + iterations

(** Measured time of one iteration in this run, in ns. *)
let iteration_ns () = float !total_ns /. float (max 1 !total_iterations)

(** A host time of this run, as it would read on the nominal host. *)
let scale t = t *. nominal_ns /. iteration_ns ()
