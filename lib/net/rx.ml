(** NAPI-style receive processing over the driver's multi-queue RX entry
    points: the kernel half of the full-duplex path.

    Per queue, mirroring Linux's net_rx_action:
    - the RX interrupt fires ({!Nic.Device.rxq_irq_pending}): charge
      interrupt entry/exit, run the handler, which *masks* the queue
      ([e1000e_rx_disable]) and schedules the poll loop — no frame is
      touched in hard-irq context;
    - softirq passes ({!poll}) call [e1000e_napi_poll] with a fixed
      budget: every frame consumed there pays the *guarded* loads of the
      driver's descriptor walk and EtherType sniff, so guard cost lands
      in softirq context, amortized across the coalesced batch;
    - a pass that exhausts its budget stays scheduled (more work is
      waiting); a pass that comes up short re-enables the queue's
      interrupt ([e1000e_rx_enable]) and goes idle;
    - interrupt coalescing ([e1000e_rx_coalesce]) delays the cause latch
      until [coalesce] frames have accumulated; a software delay-timer
      kick ({!Nic.Device.rx_fire_timer}) rescues quiet tails so the last
      sub-threshold batch is never stranded.

    Per-frame latency is measured device-side: the device stamps each
    frame's DMA-delivery cycle, and the poll loop pops one stamp per
    consumed frame ({!Nic.Device.rx_take_stamps}), yielding
    arrival-to-delivery latencies that include coalescing delay, softirq
    batching, and guard overhead. *)

type qstate = {
  q : int;
  mutable scheduled : bool;  (** poll loop owns the queue (irq masked) *)
  mutable irqs : int;
  mutable polls : int;  (** non-empty poll passes *)
  mutable frames : int;
  mutable budget_exhausted : int;
  mutable rearms : int;
  mutable timer_kicks : int;
  mutable idle_since_kick : int;
      (** idle polls since the last delivery; drives the timer model *)
  mutable lats : int list;  (** per-frame latency (cycles), newest first *)
}

type t = {
  kernel : Kernel.t;
  device : Nic.Device.t;
  budget : int;
  coalesce : int;
  timer_passes : int;
      (** idle passes after which the coalescing delay timer fires *)
  trace : Trace.t option;
  qs : qstate array;
  mutable irq_cycles : int;  (** interrupt entry/exit cost per RX irq *)
}

let create ?(budget = 32) ?(coalesce = 1) ?(timer_passes = 4) ?trace kernel
    device ~queues =
  assert (queues >= 1 && queues <= Nic.Regs.max_rx_queues);
  {
    kernel;
    device;
    budget = Int.max 1 budget;
    coalesce = Int.max 1 coalesce;
    timer_passes = Int.max 1 timer_passes;
    trace;
    qs =
      Array.init queues (fun q ->
          {
            q;
            scheduled = false;
            irqs = 0;
            polls = 0;
            frames = 0;
            budget_exhausted = 0;
            rearms = 0;
            timer_kicks = 0;
            idle_since_kick = 0;
            lats = [];
          });
    irq_cycles = 120;
  }

let queues t = Array.length t.qs

(** Bring up every RX queue: per-queue ring + buffers, the coalescing
    threshold, and the RSS fan-out across all queues. The driver's probe
    ([Netstack.bring_up]) must have run first. *)
let bring_up t ~ring_entries ~bufsz =
  assert (ring_entries land (ring_entries - 1) = 0);
  Array.iter
    (fun qs ->
      let rc =
        Kernel.call_symbol t.kernel "e1000e_setup_rx_queue"
          [| qs.q; ring_entries; bufsz |]
      in
      if rc <> 0 then failwith "Rx.bring_up: setup_rx_queue failed";
      ignore
        (Kernel.call_symbol t.kernel "e1000e_rx_coalesce"
           [| qs.q; t.coalesce |]))
    t.qs;
  ignore
    (Kernel.call_symbol t.kernel "e1000e_setup_rss" [| Array.length t.qs |])

let on_trace ?size ?flags t kind ~info =
  match t.trace with
  | Some tr -> Trace.on_lifecycle ?size ?flags tr kind ~info
  | None -> ()

(* Claim latency stamps for [n] just-consumed frames of queue [q]. *)
let claim_stamps t qs n =
  if n > 0 then begin
    let now = Machine.Model.cycles (Kernel.machine t.kernel) in
    let stamps = Nic.Device.rx_take_stamps t.device ~q:qs.q n in
    Array.iter (fun s -> qs.lats <- (now - s) :: qs.lats) stamps
  end

(** Service queue [q]'s pending RX interrupt, if any: hard-irq half.
    Masks the queue and schedules the poll loop. Returns true if an
    interrupt was taken. *)
let irq t ~q =
  let qs = t.qs.(q) in
  if Nic.Device.rxq_irq_pending t.device ~q then begin
    Nic.Device.ack_rxq_irq t.device ~q;
    Machine.Model.add_cycles (Kernel.machine t.kernel) t.irq_cycles;
    ignore (Kernel.call_symbol t.kernel "e1000e_rx_disable" [| q |]);
    qs.irqs <- qs.irqs + 1;
    qs.scheduled <- true;
    on_trace t Trace.Rx_irq ~info:q;
    true
  end
  else false

(** One softirq poll pass for queue [q], if it is scheduled: consume up
    to [budget] frames through the driver, then either stay scheduled
    (budget exhausted — more frames are waiting) or re-enable the
    interrupt and go idle. Returns the number of frames consumed. *)
let poll_once t ~q =
  let qs = t.qs.(q) in
  if not qs.scheduled then 0
  else begin
    (* a quarantined driver's calls return a negative errno; treat that
       as an empty poll so the loop re-arms and counters stay sane *)
    let n =
      Int.max 0 (Kernel.call_symbol t.kernel "e1000e_napi_poll" [| q; t.budget |])
    in
    claim_stamps t qs n;
    qs.frames <- qs.frames + n;
    if n > 0 then qs.polls <- qs.polls + 1;
    if n >= t.budget then begin
      qs.budget_exhausted <- qs.budget_exhausted + 1;
      on_trace t Trace.Rx_poll ~size:n ~flags:1 ~info:q
    end
    else begin
      ignore (Kernel.call_symbol t.kernel "e1000e_rx_enable" [| q |]);
      qs.scheduled <- false;
      qs.rearms <- qs.rearms + 1;
      if n > 0 then on_trace t Trace.Rx_poll ~size:n ~flags:0 ~info:q
    end;
    n
  end

(** Drive queue [q] once from the outside: take a pending interrupt,
    run one poll pass if scheduled, and model the coalescing delay
    timer — after [timer_passes] idle calls with frames waiting below
    the threshold, kick the cause so the tail batch is delivered.
    Returns frames consumed this call. *)
let service t ~q =
  ignore (irq t ~q : bool);
  let n = poll_once t ~q in
  let qs = t.qs.(q) in
  if n = 0 && not qs.scheduled then begin
    qs.idle_since_kick <- qs.idle_since_kick + 1;
    if qs.idle_since_kick >= t.timer_passes then begin
      qs.idle_since_kick <- 0;
      if Nic.Device.rx_fire_timer t.device ~q then
        qs.timer_kicks <- qs.timer_kicks + 1
    end
  end
  else qs.idle_since_kick <- 0;
  n

(** Drain queue [q] completely: repeated service passes until the ring
    is empty and the queue is idle. Used at end of run so coalesced
    tails are counted. Returns frames consumed. *)
let flush t ~q =
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    ignore (Nic.Device.rx_fire_timer t.device ~q : bool);
    let n = service t ~q in
    total := !total + n;
    if n = 0 && not t.qs.(q).scheduled then continue := false
  done;
  !total

let flush_all t =
  Array.fold_left (fun acc qs -> acc + flush t ~q:qs.q) 0 t.qs

(* --- statistics ----------------------------------------------------- *)

let frames t ~q = t.qs.(q).frames
let irqs t ~q = t.qs.(q).irqs
let polls t ~q = t.qs.(q).polls
let budget_exhausted t ~q = t.qs.(q).budget_exhausted
let rearms t ~q = t.qs.(q).rearms
let timer_kicks t ~q = t.qs.(q).timer_kicks
let total_frames t = Array.fold_left (fun a q -> a + q.frames) 0 t.qs

(** Per-frame arrival-to-delivery latencies (cycles) of queue [q],
    oldest first. *)
let latencies t ~q = List.rev t.qs.(q).lats

(** All queues' latencies as one float array (for {!Stats.Cdf}). *)
let all_latencies t =
  let n = Array.fold_left (fun a q -> a + List.length q.lats) 0 t.qs in
  let out = Array.make (Int.max 1 n) 0.0 in
  let i = ref 0 in
  Array.iter
    (fun q ->
      List.iter
        (fun l ->
          out.(!i) <- float_of_int l;
          incr i)
        q.lats)
    t.qs;
  if n = 0 then [||] else out

(** The /proc/carat/net rendering: one row per RX queue — driver-side
    delivery counters, device-side drop counters, and the NAPI loop's
    own accounting. *)
let render t =
  let b = Buffer.create 512 in
  Buffer.add_string b "carat net: RX queues (NAPI)\n";
  Printf.bprintf b "  %3s %8s %10s %8s %6s %6s %8s %7s %6s\n" "q" "frames"
    "bytes" "dropped" "irqs" "polls" "exhaust" "rearms" "kicks";
  Array.iter
    (fun qs ->
      Printf.bprintf b "  %3d %8d %10d %8d %6d %6d %8d %7d %6d\n" qs.q
        (Nic.Device.rxq_frames t.device ~q:qs.q)
        (Nic.Device.rxq_bytes t.device ~q:qs.q)
        (Nic.Device.rxq_dropped t.device ~q:qs.q)
        qs.irqs qs.polls qs.budget_exhausted qs.rearms qs.timer_kicks)
    t.qs;
  Printf.bprintf b "rss_queues %d rdt_rejects %d\n"
    (Nic.Device.rss_queues t.device)
    (Nic.Device.rdt_rejects t.device);
  Buffer.contents b
