(** A thin kernel network-core layer between the user-level tool and the
    driver: the [sendmsg] path.

    Per packet, mirroring what a raw-socket send does in Linux:
    - syscall crossing (charged by {!Kernel.ioctl}-style syscall cost)
    - socket-layer bookkeeping (touches the sock structure in kernel
      memory — real loads/stores through the cache model)
    - skb allocation from a pool and the *unguarded core-kernel copy* of
      the user payload into it (this is the packet-size-dependent part of
      the baseline path)
    - the driver's [e1000e_xmit_frame], interpreted KIR — the only part
      whose memory accesses are guarded in a protected build
    - on ring-full: block, let the device drain, pay a descheduling
      penalty — the source of the paper's >10M-cycle latency outliers.

    Device completion interrupts are modelled by a [Device.sync] before
    each transmit attempt. *)

type t = {
  kernel : Kernel.t;
  device : Nic.Device.t;
  xmit_symbol : string;
  queue : int;
      (** TX queue this stack sends on: -1 = the classic single-queue
          driver path (default); >= 0 = the multi-queue driver entry
          points against the numbered device ring (one per CPU under
          SMP), with a per-queue MSI-X style completion latch *)
  sock_vaddr : int;  (** simulated struct sock / socket bookkeeping *)
  skb_pool : int array;
  skb_size : int;
  mutable next_skb : int;
  noise : Machine.Rng.t;
  mutable interrupt_prob : float;
  mutable interrupt_mean_cycles : int;
  mutable deschedule_mean_cycles : int;
      (** typical wakeup latency after blocking on a full ring *)
  mutable major_deschedule_prob : float;
      (** chance the scheduler runs something else for milliseconds —
          the paper's >10M-cycle outliers *)
  mutable max_retries : int;
      (** ring-full retries before a send gives up with a typed error
          instead of wedging the trial *)
  mutable busy_retries : int;
  mutable deschedules : int;
  mutable sent : int;
  mutable send_errors : int;
}

let sock_size = 512
let default_pool = 64

let create ?xmit_symbol ?(queue = -1) ?(skb_size = 2048)
    ?(pool = default_pool) ?(noise_seed = 1234) kernel device =
  let xmit_symbol =
    match xmit_symbol with
    | Some s -> s
    | None -> if queue >= 0 then "e1000e_xmit_frame_mq" else "e1000e_xmit_frame"
  in
  {
    kernel;
    device;
    xmit_symbol;
    queue;
    sock_vaddr = Kernel.kmalloc kernel ~size:sock_size;
    skb_pool =
      Array.init pool (fun _ -> Kernel.kmalloc kernel ~size:skb_size);
    skb_size;
    next_skb = 0;
    noise = Machine.Rng.create noise_seed;
    interrupt_prob = 0.004;
    interrupt_mean_cycles = 12_000;
    deschedule_mean_cycles = 8_000;
    major_deschedule_prob = 0.004;
    max_retries = 64;
    busy_retries = 0;
    deschedules = 0;
    sent = 0;
    send_errors = 0;
  }

(** Bring the interface up: run the driver's probe with a TX ring of
    [ring_entries] (must be a power of two). *)
let bring_up t ~ring_entries =
  assert (ring_entries land (ring_entries - 1) = 0);
  let rc =
    Kernel.call_symbol t.kernel "e1000e_probe"
      [| Nic.Device.mmio_base t.device; ring_entries |]
  in
  if rc <> 0 then failwith "bring_up: probe failed"

(** Bring up this stack's own TX queue (multi-queue stacks only): run
    the driver's per-queue setup against the device ring this stack
    sends on. [bring_up] (the probe, which also enables the transmitter
    globally) must have run once on some stack first. *)
let bring_up_queue t ~ring_entries =
  assert (t.queue >= 0);
  assert (ring_entries land (ring_entries - 1) = 0);
  let rc =
    Kernel.call_symbol t.kernel "e1000e_setup_tx_queue"
      [| t.queue; ring_entries |]
  in
  if rc <> 0 then failwith "bring_up_queue: setup failed"

let set_noise t ~interrupt_prob ~interrupt_mean ~deschedule_mean =
  t.interrupt_prob <- interrupt_prob;
  t.interrupt_mean_cycles <- interrupt_mean;
  t.deschedule_mean_cycles <- deschedule_mean

(** Interrupt servicing: when the device has a cause latched, run the
    driver's handler (which cleans the TX ring). This happens on its own
    — between syscalls, from the tool's perspective — so the measured
    sendmsg window does not include completion processing, exactly as on
    real hardware with MSI interrupts. *)
let poll_interrupts t =
  Nic.Device.sync t.device;
  if t.queue >= 0 then begin
    (* multi-queue: this stack's MSI-X style per-queue latch only — a
       shared read-to-clear ICR would let concurrent CPUs swallow each
       other's completion causes *)
    if Nic.Device.txq_irq_pending t.device ~q:t.queue then begin
      Nic.Device.ack_txq_irq t.device ~q:t.queue;
      (* interrupt entry/exit cost on the CPU *)
      Machine.Model.add_cycles (Kernel.machine t.kernel) 120;
      ignore
        (Kernel.call_symbol t.kernel "e1000e_irq_handler_mq" [| t.queue |])
    end
  end
  else if Nic.Device.pending_interrupt t.device then begin
    (* interrupt entry/exit cost on the CPU *)
    Machine.Model.add_cycles (Kernel.machine t.kernel) 120;
    ignore (Kernel.call_symbol t.kernel "e1000e_irq_handler" [||])
  end

(* socket-layer bookkeeping: a handful of hot sock fields *)
let touch_sock t =
  let k = t.kernel in
  let wmem = Kernel.read k ~addr:(t.sock_vaddr + 16) ~size:8 in
  Kernel.write k ~addr:(t.sock_vaddr + 16) ~size:8 (wmem + 1);
  ignore (Kernel.read k ~addr:(t.sock_vaddr + 64) ~size:8);
  ignore (Kernel.read k ~addr:(t.sock_vaddr + 128) ~size:8);
  Kernel.write k ~addr:(t.sock_vaddr + 192) ~size:8 t.sent;
  Machine.Model.retire (Kernel.machine k) 120

type send_error =
  | Ring_full_timeout of int
      (** the ring never drained within the retry budget; carries the
          number of retries attempted *)
  | Driver_quarantined
      (** the driver was quarantined (possibly mid-send by this very
          call's guard trap) *)
  | Driver_unloaded  (** the xmit symbol does not resolve *)

let send_error_to_string = function
  | Ring_full_timeout n -> Printf.sprintf "ring never drained (%d retries)" n
  | Driver_quarantined -> "driver quarantined"
  | Driver_unloaded -> "driver not loaded"

exception Send_failed of send_error

(** The sendmsg syscall: copy [len] bytes from the user buffer at
    [user_buf] and hand them to the driver. Returns [Ok len], or a typed
    error instead of wedging the caller: bounded retry with linear
    backoff while the ring is full, and [Driver_quarantined] when a guard
    trap isolated the driver mid-send. *)
let try_sendmsg t ~user_buf ~len : (int, send_error) result =
  let k = t.kernel in
  let machine = Kernel.machine k in
  Machine.Model.syscall machine;
  touch_sock t;
  (* skb alloc + core-kernel copy of the payload (unguarded) *)
  let skb = t.skb_pool.(t.next_skb) in
  t.next_skb <- (t.next_skb + 1) mod Array.length t.skb_pool;
  Machine.Model.retire machine 40;
  ignore (Kernel.call_symbol k "memcpy" [| skb; user_buf; len |]);
  (* the device keeps draining in the background *)
  Nic.Device.sync t.device;
  (* per-call syscall-path noise: TLB pressure, pipeline replay, minor
     contention — the spread of the paper's Figure 7 histogram *)
  Machine.Model.add_cycles machine
    (Machine.Rng.jitter t.noise ~mean:70 ~max:900);
  (* occasional unrelated interrupt during the syscall *)
  if Machine.Rng.flip t.noise t.interrupt_prob then
    Machine.Model.add_cycles machine
      (Machine.Rng.jitter t.noise ~mean:t.interrupt_mean_cycles
         ~max:(20 * t.interrupt_mean_cycles));
  let fail err =
    t.send_errors <- t.send_errors + 1;
    (* syscall error-return path *)
    Machine.Model.retire machine 60;
    Error err
  in
  let rec attempt tries =
    match Kernel.lookup_symbol k t.xmit_symbol with
    | None ->
      if Kernel.quarantined_symbol k t.xmit_symbol <> None then
        fail Driver_quarantined
      else fail Driver_unloaded
    | Some _ ->
      let rc =
        if t.queue >= 0 then
          Kernel.call_symbol k t.xmit_symbol [| skb; len; t.queue |]
        else Kernel.call_symbol k t.xmit_symbol [| skb; len |]
      in
      if rc = 0 then Ok ()
      else if rc = Kernel.eio then
        (* the guard trap quarantined the driver under this very call *)
        fail Driver_quarantined
      else if tries >= t.max_retries then fail (Ring_full_timeout tries)
      else begin
        (* ring full: block until the device frees a slot; the task is
           descheduled, which is where the huge latency outliers come
           from. Linear backoff keeps a wedged device from trapping the
           sender forever. *)
        t.busy_retries <- t.busy_retries + 1;
        t.deschedules <- t.deschedules + 1;
        let wake =
          Nic.Device.next_completion_cycle ~q:(Int.max t.queue 0) t.device
        in
        let now = Machine.Model.cycles machine in
        let sleep = Int.max 0 (wake - now) in
        let penalty =
          Machine.Rng.jitter t.noise ~mean:t.deschedule_mean_cycles
            ~max:(6 * t.deschedule_mean_cycles)
          + (t.deschedule_mean_cycles * Int.min tries 16)
          +
          if Machine.Rng.flip t.noise t.major_deschedule_prob then
            Machine.Rng.jitter t.noise ~mean:4_000_000 ~max:16_000_000
          else 0
        in
        Machine.Model.add_cycles machine (sleep + penalty);
        (* the TX-completion interrupt is what woke us: service it so the
           driver's next_to_clean advances *)
        poll_interrupts t;
        attempt (tries + 1)
      end
  in
  match attempt 0 with
  | Ok () ->
    t.sent <- t.sent + 1;
    (* syscall return path *)
    Machine.Model.retire machine 60;
    Ok len
  | Error e -> Error e

(** Raising variant of {!try_sendmsg} for callers that treat any send
    failure as fatal. *)
let sendmsg t ~user_buf ~len =
  match try_sendmsg t ~user_buf ~len with
  | Ok n -> n
  | Error e -> raise (Send_failed e)

let sent t = t.sent
let busy_retries t = t.busy_retries
let deschedules t = t.deschedules
let send_errors t = t.send_errors
let set_max_retries t n = t.max_retries <- Int.max 0 n
