(** Behavioural model of the NIC.

    The device owns a register BAR (mapped into the kernel's MMIO window)
    and a DMA engine. On a TDT doorbell it walks the TX descriptor ring,
    DMA-reads each descriptor and its buffer from simulated physical
    memory — through {!Kernel.dma_read}, i.e. *without* CPU cost and
    *without* guards, reproducing the paper's point that the overwhelming
    amount of data transfer is unchecked DMA — and delivers the frame to a
    packet sink.

    Draining is modelled in simulated time: each frame occupies the 1 Gb/s
    wire for (bytes + preamble/IFG overhead) * 8 ns, converted to CPU
    cycles. [sync] lazily advances the device up to the current CPU clock,
    writing back DD status bits and TDH exactly as the hardware's
    writeback would; it stands in for the interrupt path. An optional
    stall process (flow-control pauses) produces the ring-full episodes
    behind the paper's latency outliers.

    TX is multi-queue (up to {!Regs.max_tx_queues} rings, 82574-style
    register blocks at a fixed stride) over the single shared wire:
    per-CPU senders each own a ring, and the drain engine interleaves
    completed frames in doorbell order. Queue 0's registers are the
    classic single-queue ones, so the pre-SMP driver — and its simulated
    behaviour — is unchanged. Queues 1+ complete to a per-queue MSI-X
    style interrupt latch instead of the shared ICR cause. *)

type frame = { data : string; at_cycle : int }

(** One TX descriptor ring (queue). *)
type txq = {
  mutable q_base : int;  (** virtual (direct-map) ring address *)
  mutable q_entries : int;
  mutable q_tdh : int;
  mutable q_tdt : int;
  mutable q_post : int array;
      (** cycle at which each ring slot was posted (doorbell time): a
          frame cannot occupy the wire before it exists *)
  mutable q_irq : bool;  (** per-queue completion latch (MSI-X vector) *)
  mutable q_frames : int;
  mutable q_bytes : int;
}

(** One RX descriptor ring (queue). Queue 0 is the classic single-queue
    receiver (its registers are the classic RDBAL/RDLEN/RDH/RDT and its
    delivery cause is the shared ICR RXT0 bit); queues 1+ complete to a
    per-queue latch like the TX side. *)
type rxq = {
  mutable r_base : int;  (** virtual (direct-map) ring address *)
  mutable r_entries : int;
  mutable r_rdh : int;  (** next slot the device fills *)
  mutable r_rdt : int;  (** first slot NOT available to the device *)
  mutable r_coalesce : int;
      (** interrupt coalescing: frames delivered per latched RX cause
          (RDTR-slot register); <= 1 latches on every frame *)
  mutable r_unack : int;  (** frames delivered since the last cause *)
  mutable r_masked : bool;
      (** NAPI mask latch: while set, the delivery cause still
          accumulates but {!rxq_irq_pending} reports nothing *)
  mutable r_irq : bool;  (** per-queue RX cause latch *)
  mutable r_frames : int;
  mutable r_bytes : int;
  mutable r_dropped : int;
  r_stamps : int Queue.t;
      (** arrival cycle of each delivered-but-unclaimed frame, for
          per-packet latency measurement by the harness *)
}

(** A write to an RX tail register with a value outside the ring. The
    real hardware's behaviour here is undefined; the old model silently
    wrapped the value with [mod], which hid driver bugs. The device now
    rejects the write (the tail is unchanged) and latches the fault so
    the harness can assert on it. *)
type rdt_error = { rdt_queue : int; rdt_value : int; rdt_entries : int }

let rdt_error_to_string e =
  Printf.sprintf "RDT write %d out of range on queue %d (ring has %d slots)"
    e.rdt_value e.rdt_queue e.rdt_entries

type t = {
  kernel : Kernel.t;
  name : string;
  regs : (int, int) Hashtbl.t;
  mutable mmio_base : int;
  (* DMA/drain state *)
  txqs : txq array;  (** [Regs.max_tx_queues] rings; index 0 = classic *)
  mutable busy_until : int;  (** device cycle at which the wire frees up *)
  mutable link_up : bool;
  (* RX state *)
  rxqs : rxq array;  (** [Regs.max_rx_queues] rings; index 0 = classic *)
  mutable rss_queues : int;
      (** RSS fan-out (MRQC): number of rings flows hash across;
          <= 1 means steering off, everything lands on queue 0 *)
  mutable last_rdt_error : rdt_error option;
  mutable rdt_rejects : int;
  (* stall (flow-control pause) process *)
  mutable stall_prob : float;  (** per-frame probability of a pause *)
  mutable stall_cycles : int;
  rng : Machine.Rng.t;
  (* sink *)
  mutable tx_frames : int;
  mutable tx_bytes : int;
  recent : frame array;  (** circular, [recent_next] is the next slot *)
  mutable recent_next : int;
  mutable recent_count : int;
}

let gbit_per_s = 1.0 (* line rate *)

(** Wire time of a frame in CPU cycles: (preamble 8 + frame + IFG 12 +
    FCS 4) bytes at line rate. *)
let wire_cycles t bytes =
  let ns = float_of_int (bytes + 24) *. 8.0 /. gbit_per_s in
  int_of_float (ns *. (Kernel.machine t.kernel).Machine.Model.p.freq_ghz)

let reg_read t off = try Hashtbl.find t.regs off with Not_found -> 0
let reg_write t off v = Hashtbl.replace t.regs off v

let now t = Machine.Model.cycles (Kernel.machine t.kernel)

let queue t q = t.txqs.(q)

let q_configured q = q.q_base <> 0 && q.q_entries > 0

let ring_configured ?(q = 0) t = q_configured t.txqs.(q)

let q_posted q =
  if Array.length q.q_post > q.q_tdh then q.q_post.(q.q_tdh) else 0

(* The queue whose head frame hit the doorbell earliest goes on the wire
   next (tie: lowest queue index) — round-robin arbitration in post
   order. With only queue 0 active this always selects queue 0, making
   the drain sequence identical to the single-queue device. *)
let pick_pending t =
  let best = ref (-1) and best_posted = ref max_int in
  Array.iteri
    (fun i q ->
      if q_configured q && q.q_tdh <> q.q_tdt then begin
        let p = q_posted q in
        if p < !best_posted then begin
          best := i;
          best_posted := p
        end
      end)
    t.txqs;
  !best

(** Advance the device: complete every descriptor whose wire time has
    passed by [upto], writing DD back into the ring via DMA. *)
let sync ?upto t =
  let upto = match upto with Some c -> c | None -> now t in
  let continue = ref (reg_read t Regs.tctl land Regs.tctl_en <> 0) in
  while !continue do
    let qi = pick_pending t in
    if qi < 0 then continue := false
    else begin
      let q = t.txqs.(qi) in
      let desc = q.q_base + (q.q_tdh * Regs.desc_size) in
      let buf =
        Kernel.dma_read t.kernel ~addr:(desc + Regs.desc_addr_off) ~size:8
      in
      let len =
        Kernel.dma_read t.kernel ~addr:(desc + Regs.desc_len_off) ~size:2
      in
      let posted = q_posted q in
      let start = Int.max t.busy_until posted in
      (* random flow-control pause before this frame *)
      let pause =
        if t.stall_prob > 0.0 && Machine.Rng.flip t.rng t.stall_prob then
          t.stall_cycles
        else 0
      in
      let finish = start + pause + wire_cycles t len in
      if finish > upto then continue := false
      else begin
        (* DMA the payload out and deliver to the sink *)
        let data =
          if len > 0 && buf <> 0 then Kernel.read_string t.kernel ~addr:buf ~len
          else ""
        in
        t.tx_frames <- t.tx_frames + 1;
        t.tx_bytes <- t.tx_bytes + len;
        q.q_frames <- q.q_frames + 1;
        q.q_bytes <- q.q_bytes + len;
        (* bounded sink: overwrite the oldest slot; completion runs once
           per frame, so this must not churn a list *)
        t.recent.(t.recent_next) <- { data; at_cycle = finish };
        t.recent_next <- (t.recent_next + 1) mod Array.length t.recent;
        if t.recent_count < Array.length t.recent then
          t.recent_count <- t.recent_count + 1;
        t.busy_until <- finish;
        (* status writeback: set DD *)
        let sta =
          Kernel.dma_read t.kernel ~addr:(desc + Regs.desc_sta_off) ~size:1
        in
        Kernel.dma_write t.kernel ~addr:(desc + Regs.desc_sta_off) ~size:1
          (sta lor Regs.sta_dd);
        q.q_tdh <- (q.q_tdh + 1) mod q.q_entries;
        q.q_irq <- true;
        if qi = 0 then
          reg_write t Regs.icr (reg_read t Regs.icr lor Regs.icr_txdw)
      end
    end
  done

(** Earliest cycle by which at least one more descriptor of queue [q]
    will complete — where a blocked sender should wake up. *)
let next_completion_cycle ?(q = 0) t =
  let q = t.txqs.(q) in
  if q.q_tdh = q.q_tdt then now t
  else begin
    let desc = q.q_base + (q.q_tdh * Regs.desc_size) in
    let len =
      Kernel.dma_read t.kernel ~addr:(desc + Regs.desc_len_off) ~size:2
    in
    let posted = q_posted q in
    Int.max (Int.max t.busy_until posted) (now t) + wire_cycles t len
  end

(* TX queue register blocks: [Regs.tdbal + q * Regs.txq_stride]. *)
let txq_of_off off =
  if off >= Regs.tdbal && off < Regs.tdbal + (Regs.max_tx_queues * Regs.txq_stride)
  then begin
    let q = (off - Regs.tdbal) / Regs.txq_stride in
    Some (q, off - (q * Regs.txq_stride))
  end
  else None

(* RX queue register blocks: [Regs.rdbal + q * Regs.rxq_stride]. The
   returned sub-offset is rdbal-relative so it compares against the
   classic register names directly (queue 0's block IS the classic
   registers). *)
let rxq_of_off off =
  if off >= Regs.rdbal && off < Regs.rdbal + (Regs.max_rx_queues * Regs.rxq_stride)
  then begin
    let q = (off - Regs.rdbal) / Regs.rxq_stride in
    Some (q, off - Regs.rdbal - (q * Regs.rxq_stride))
  end
  else None

let handle_read t off size =
  ignore size;
  match txq_of_off off with
  | Some (qi, sub) ->
    let q = t.txqs.(qi) in
    if sub = Regs.tdh then begin
      sync t;
      q.q_tdh
    end
    else if sub = Regs.tdt then q.q_tdt
    else reg_read t off
  | None ->
    (match rxq_of_off off with
    | Some (qi, sub) ->
      let r = t.rxqs.(qi) in
      if sub = Regs.rdh - Regs.rdbal then r.r_rdh
      else if sub = Regs.rdt - Regs.rdbal then r.r_rdt
      else if sub = Regs.rxq_rdtr_off then r.r_coalesce
      else if sub = Regs.rxq_mask_off then if r.r_masked then 1 else 0
      else if sub = Regs.rxq_frames_off then r.r_frames
      else if sub = Regs.rxq_bytes_off then r.r_bytes
      else if sub = Regs.rxq_dropped_off then r.r_dropped
      else reg_read t off
    | None ->
      if off = Regs.status then
        reg_read t Regs.status lor (if t.link_up then Regs.status_lu else 0)
      else if off = Regs.icr then begin
        (* read-to-clear *)
        let v = reg_read t Regs.icr in
        reg_write t Regs.icr 0;
        v
      end
      else reg_read t off)

let reset_txq q =
  q.q_base <- 0;
  q.q_entries <- 0;
  q.q_tdh <- 0;
  q.q_tdt <- 0;
  q.q_post <- [||];
  q.q_irq <- false

let reset_rxq r =
  r.r_base <- 0;
  r.r_entries <- 0;
  r.r_rdh <- 0;
  r.r_rdt <- 0;
  r.r_coalesce <- 1;
  r.r_unack <- 0;
  r.r_masked <- false;
  r.r_irq <- false;
  Queue.clear r.r_stamps

let handle_write t off size v =
  ignore size;
  match txq_of_off off with
  | Some (qi, sub) ->
    let q = t.txqs.(qi) in
    if sub = Regs.tdt then begin
      if q_configured q then begin
        let now_c = now t in
        let v = v mod q.q_entries in
        (* stamp the post time of every newly published slot *)
        let i = ref q.q_tdt in
        while !i <> v do
          q.q_post.(!i) <- now_c;
          i := (!i + 1) mod q.q_entries
        done;
        q.q_tdt <- v;
        reg_write t off q.q_tdt;
        sync t
      end
    end
    else if sub = Regs.tdbal then begin
      reg_write t off v;
      q.q_base <- v
    end
    else if sub = Regs.tdlen then begin
      reg_write t off v;
      q.q_entries <- v / Regs.desc_size;
      q.q_post <- Array.make (Int.max 1 q.q_entries) 0
    end
    else if sub = Regs.tdh then begin
      q.q_tdh <- v;
      reg_write t off v
    end
    else reg_write t off v
  | None ->
    (match rxq_of_off off with
    | Some (qi, sub) ->
      let r = t.rxqs.(qi) in
      if sub = 0 (* rdbal *) then begin
        reg_write t off v;
        r.r_base <- v
      end
      else if sub = Regs.rdlen - Regs.rdbal then begin
        reg_write t off v;
        r.r_entries <- v / Regs.desc_size
      end
      else if sub = Regs.rdh - Regs.rdbal then begin
        r.r_rdh <- v;
        reg_write t off v
      end
      else if sub = Regs.rdt - Regs.rdbal then begin
        (* typed out-of-range rejection: the tail must name a ring slot
           (or 0 on an unconfigured ring); anything else is a driver bug
           the device refuses rather than wrapping into silent corruption *)
        if v >= 0 && (if r.r_entries > 0 then v < r.r_entries else v = 0)
        then begin
          r.r_rdt <- v;
          reg_write t off v
        end
        else begin
          t.last_rdt_error <-
            Some { rdt_queue = qi; rdt_value = v; rdt_entries = r.r_entries };
          t.rdt_rejects <- t.rdt_rejects + 1
        end
      end
      else if sub = Regs.rxq_rdtr_off then begin
        r.r_coalesce <- Int.max 1 v;
        reg_write t off r.r_coalesce
      end
      else if sub = Regs.rxq_mask_off then begin
        r.r_masked <- v <> 0;
        reg_write t off v
      end
      else reg_write t off v
    | None ->
      if off = Regs.mrqc then begin
        reg_write t off v;
        t.rss_queues <- Int.max 0 (Int.min v Regs.max_rx_queues)
      end
      else if off = Regs.ctrl && v land Regs.ctrl_rst <> 0 then begin
        (* device reset *)
        Hashtbl.reset t.regs;
        Array.iter reset_txq t.txqs;
        Array.iter reset_rxq t.rxqs;
        t.rss_queues <- 0;
        t.busy_until <- 0
      end
      else reg_write t off v)

(** Create the device and map its BAR; returns the device. The driver
    learns the BAR's virtual base from [mmio_base]. *)
let create ?(name = "e1000e-sim") ?(stall_prob = 0.0)
    ?(stall_cycles = 2_000_000) ?(seed = 7) kernel =
  let t =
    {
      kernel;
      name;
      regs = Hashtbl.create 64;
      mmio_base = 0;
      txqs =
        Array.init Regs.max_tx_queues (fun _ ->
            {
              q_base = 0;
              q_entries = 0;
              q_tdh = 0;
              q_tdt = 0;
              q_post = [||];
              q_irq = false;
              q_frames = 0;
              q_bytes = 0;
            });
      busy_until = 0;
      link_up = true;
      rxqs =
        Array.init Regs.max_rx_queues (fun _ ->
            {
              r_base = 0;
              r_entries = 0;
              r_rdh = 0;
              r_rdt = 0;
              r_coalesce = 1;
              r_unack = 0;
              r_masked = false;
              r_irq = false;
              r_frames = 0;
              r_bytes = 0;
              r_dropped = 0;
              r_stamps = Queue.create ();
            });
      rss_queues = 0;
      last_rdt_error = None;
      rdt_rejects = 0;
      stall_prob;
      stall_cycles;
      rng = Machine.Rng.create seed;
      tx_frames = 0;
      tx_bytes = 0;
      recent = Array.make 32 { data = ""; at_cycle = 0 };
      recent_next = 0;
      recent_count = 0;
    }
  in
  let region =
    Kernel.ioremap kernel ~name ~size:Regs.bar_size
      ~read:(fun off size -> handle_read t off size)
      ~write:(fun off size v -> handle_write t off size v)
  in
  t.mmio_base <- region.Kernel.mmio_virt;
  t

let mmio_base t = t.mmio_base

(** True when the device has an interrupt cause latched (e.g. TX
    writeback). The kernel checks this cheaply (MSI delivery) before
    running the driver's handler, which is what clears ICR. *)
let pending_interrupt t =
  sync t;
  reg_read t Regs.icr <> 0

(** Per-queue completion latch (the MSI-X vector a multi-queue sender
    polls); separate from the shared legacy ICR cause so per-CPU queues
    never swallow each other's interrupts through read-to-clear. *)
let txq_irq_pending t ~q =
  sync t;
  t.txqs.(q).q_irq

let ack_txq_irq t ~q = t.txqs.(q).q_irq <- false

let tx_frames t = t.tx_frames
let tx_bytes t = t.tx_bytes
let txq_frames t ~q = t.txqs.(q).q_frames
let txq_bytes t ~q = t.txqs.(q).q_bytes
(* newest-first list of the last frames delivered to the sink *)
let recent_frames t =
  let cap = Array.length t.recent in
  List.init t.recent_count (fun i ->
      t.recent.((t.recent_next - 1 - i + (2 * cap)) mod cap))
let set_stall t ~prob ~cycles =
  t.stall_prob <- prob;
  t.stall_cycles <- cycles
let set_link t up = t.link_up <- up

(* ------------------------------------------------------------------ *)
(* receive side *)

let rxq_configured ?(q = 0) t =
  let r = t.rxqs.(q) in
  r.r_base <> 0 && r.r_entries > 0
  && reg_read t Regs.rctl land Regs.rctl_en <> 0

let rx_configured t = rxq_configured ~q:0 t

(* Latch queue [qi]'s RX cause: the per-queue latch always, plus the
   shared ICR bit for queue 0 so the classic (non-NAPI) interrupt path
   keeps working unchanged. *)
let latch_rx_cause t qi bit =
  let r = t.rxqs.(qi) in
  r.r_irq <- true;
  if qi = 0 then reg_write t Regs.icr (reg_read t Regs.icr lor bit)

(** Deliver an incoming frame from the (simulated) wire into queue [qi]:
    DMA the payload into the next posted receive buffer, write back
    length and DD|EOP status, advance RDH and — once the coalescing
    threshold is met — latch an RX interrupt cause. Frames arriving with
    no buffer available are dropped and latch RXO (receiver overrun),
    like hardware without flow control. Returns true if delivered.

    [stamp] overrides the arrival timestamp recorded for the frame's
    latency accounting. Under SMP every CPU's clock is a private domain;
    latency is only meaningful measured on one clock, so the caller
    should stamp with the cycle counter of the CPU that owns the target
    queue's NAPI loop (the same clock {!Rx.poll_once} claims against).
    Defaults to the current machine's clock — correct single-CPU and for
    a CPU injecting into its own queue. *)
let rx_inject_q ?stamp t qi (data : string) : bool =
  let r = t.rxqs.(qi) in
  if (not (rxq_configured ~q:qi t)) || not t.link_up then begin
    r.r_dropped <- r.r_dropped + 1;
    false
  end
  else if r.r_rdh = r.r_rdt then begin
    (* no buffers posted: receiver overrun *)
    r.r_dropped <- r.r_dropped + 1;
    latch_rx_cause t qi Regs.icr_rxo;
    false
  end
  else begin
    let desc = r.r_base + (r.r_rdh * Regs.desc_size) in
    let buf =
      Kernel.dma_read t.kernel ~addr:(desc + Regs.rxd_addr_off) ~size:8
    in
    let len = String.length data in
    Kernel.write_string t.kernel ~addr:buf data;
    Kernel.dma_write t.kernel ~addr:(desc + Regs.rxd_len_off) ~size:2 len;
    Kernel.dma_write t.kernel ~addr:(desc + Regs.rxd_sta_off) ~size:1
      (Regs.sta_dd lor Regs.sta_eop);
    r.r_rdh <- (r.r_rdh + 1) mod r.r_entries;
    r.r_frames <- r.r_frames + 1;
    r.r_bytes <- r.r_bytes + len;
    Queue.push (match stamp with Some s -> s | None -> now t) r.r_stamps;
    r.r_unack <- r.r_unack + 1;
    if r.r_unack >= Int.max 1 r.r_coalesce then begin
      r.r_unack <- 0;
      latch_rx_cause t qi Regs.icr_rxt0
    end;
    true
  end

(** The RX queue RSS would steer a frame with this flow hash onto: with
    RSS programmed (MRQC > 1), [hash mod rss_queues]; otherwise the
    classic queue 0. Exposed so SMP callers can stamp arrivals with the
    owning CPU's clock before injecting. *)
let rx_queue_for t ~hash =
  if t.rss_queues > 1 then abs hash mod t.rss_queues else 0

(** Steer a frame by its flow hash (see {!rx_queue_for}); [stamp] as in
    {!rx_inject_q}. *)
let rx_inject ?(hash = 0) ?stamp t (data : string) : bool =
  rx_inject_q ?stamp t (rx_queue_for t ~hash) data

(** Per-queue RX cause latch, respecting the queue's NAPI mask: a masked
    queue keeps accumulating causes but reports none (the poll loop owns
    it). Queue 0's cause is ALSO visible through the legacy ICR for the
    classic driver. *)
let rxq_irq_pending t ~q =
  let r = t.rxqs.(q) in
  r.r_irq && not r.r_masked

let ack_rxq_irq t ~q = t.rxqs.(q).r_irq <- false

(** Fire the coalescing delay timer for queue [q]: if frames are waiting
    below the packet-count threshold, latch the cause anyway so a quiet
    tail is never stranded. Returns true if a cause was latched. *)
let rx_fire_timer t ~q =
  let r = t.rxqs.(q) in
  if r.r_unack > 0 then begin
    r.r_unack <- 0;
    latch_rx_cause t q Regs.icr_rxt0;
    true
  end
  else false

(** Pop up to [n] arrival stamps (cycle of DMA delivery) from queue
    [q] — one per frame the driver just consumed, oldest first. *)
let rx_take_stamps t ~q n =
  let r = t.rxqs.(q) in
  let k = Int.min n (Queue.length r.r_stamps) in
  Array.init k (fun _ -> Queue.pop r.r_stamps)

let rxq_frames t ~q = t.rxqs.(q).r_frames
let rxq_bytes t ~q = t.rxqs.(q).r_bytes
let rxq_dropped t ~q = t.rxqs.(q).r_dropped
let rx_frames t = Array.fold_left (fun a r -> a + r.r_frames) 0 t.rxqs
let rx_bytes t = Array.fold_left (fun a r -> a + r.r_bytes) 0 t.rxqs
let rx_dropped t = Array.fold_left (fun a r -> a + r.r_dropped) 0 t.rxqs
let rss_queues t = t.rss_queues
let last_rdt_error t = t.last_rdt_error
let rdt_rejects t = t.rdt_rejects

(** Free descriptor slots of queue [q] as the device sees them right
    now. *)
let free_slots ?(q = 0) t =
  sync t;
  let q = t.txqs.(q) in
  if not (q_configured q) then 0
  else (q.q_tdh - q.q_tdt - 1 + q.q_entries) mod q.q_entries
