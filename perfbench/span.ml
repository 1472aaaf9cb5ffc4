(** Host-time spans, recorded from the benchmark around calls into the
    program's layers. A span accumulates its call count, its total time
    and the part of that time covered by spans opened inside it, so a
    layer's self time is [total_ns - child_ns]. Spans record only while
    [on] is set; otherwise {!time} is a plain call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  name : string;
  mutable count : int;
  mutable total_ns : int;
  mutable child_ns : int;
}

let on = ref false
let registry : t list ref = ref []

let make name =
  let s = { name; count = 0; total_ns = 0; child_ns = 0 } in
  registry := s :: !registry;
  s

let all () = List.rev !registry

(* open spans, innermost last *)
let max_depth = 16
let open_span =
  Array.make max_depth { name = ""; count = 0; total_ns = 0; child_ns = 0 }
let open_start = Array.make max_depth 0
let depth = ref 0

let enter s =
  open_span.(!depth) <- s;
  open_start.(!depth) <- now_ns ();
  incr depth

let leave () =
  decr depth;
  let d = !depth in
  let s = open_span.(d) in
  let dur = now_ns () - open_start.(d) in
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns + dur;
  if d > 0 then begin
    let parent = open_span.(d - 1) in
    parent.child_ns <- parent.child_ns + dur
  end

let time s f =
  if not !on then f ()
  else begin
    enter s;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

let mean_ns s = if s.count = 0 then 0.0 else float s.total_ns /. float s.count
let self_ns s = s.total_ns - s.child_ns
