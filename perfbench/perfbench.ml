(** The repository benchmark. Three workloads over the simulated kernel,
    NIC and policy module:

    - [tx-linear64-64b]: the paper's TX experiment at its most
      guard-heavy point, with an unguarded baseline twin;
    - [duplex-churn-4cpu]: full duplex on four simulated CPUs while CPU 0
      replaces the whole policy through RCU every 37 operations;
    - [module-load]: generate, compile, certify, sign, insert and remove
      driver modules, with every fourth module tampered after signing.

    A run repeats rounds until [--seconds] have passed. Each round sets
    the workload up from scratch, then runs a fixed amount of work, so
    every round of a run has identical simulated results (checked) and
    contributes one host-time sample. With [--trace 1], odd rounds are
    traced: spans placed here, around calls into each layer, give the
    per-layer metrics, and their simulated results must equal the
    untraced rounds' exactly. See README.md. *)

open Carat_kop

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
  \       perfbench parity --seed N"

(* ------------------------------------------------------------------ *)
(* layer spans and counters *)

let sp_guard = Span.make "policy.guard"
let sp_sendmsg = Span.make "net.sendmsg"
let sp_poll_irq = Span.make "nic.poll_irq"
let sp_rx_service = Span.make "net.rx_service"
let sp_rx_inject = Span.make "nic.rx_inject"
let sp_publish = Span.make "smp.publish"
let sp_create = Span.make "kernel.create"
let sp_generate = Span.make "kir.generate"
let sp_compile = Span.make "passes.compile"
let sp_validate = Span.make "analysis.validate"
let sp_insmod = Span.make "kernel.insmod"
let sp_rmmod = Span.make "kernel.rmmod"

(** Counts taken at the same boundaries as the spans, in traced rounds
    only. *)
type counters = {
  mutable pkts : int;  (** packets sent plus received *)
  mutable sent : int;
  mutable guard_calls : int;
  mutable guard_ticks : int;
  mutable checks : int;
  mutable scanned : int;
  mutable denied : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable instr : int;
  mutable loads : int;
  mutable stores : int;
  mutable mmio : int;
  mutable busy_retries : int;
  mutable deschedules : int;
  mutable rx_frames : int;
  mutable rx_polls : int;
  mutable rx_exhausted : int;
  mutable rx_kicks : int;
  mutable publishes : int;
  mutable publish_ticks : int;
  mutable ipis : int;
  mutable retired : int;
  mutable static_guards : int;
  mutable unopt_guards : int;
  mutable traced_rounds : int;
}

let c =
  {
    pkts = 0;
    sent = 0;
    guard_calls = 0;
    guard_ticks = 0;
    checks = 0;
    scanned = 0;
    denied = 0;
    ic_hits = 0;
    ic_misses = 0;
    instr = 0;
    loads = 0;
    stores = 0;
    mmio = 0;
    busy_retries = 0;
    deschedules = 0;
    rx_frames = 0;
    rx_polls = 0;
    rx_exhausted = 0;
    rx_kicks = 0;
    publishes = 0;
    publish_ticks = 0;
    ipis = 0;
    retired = 0;
    static_guards = 0;
    unopt_guards = 0;
    traced_rounds = 0;
  }

let ticks k = (Kernel.machine k).Machine.Model.ticks

(** Time [carat_guard] from outside: re-register the policy module's
    native behind a span. It stays overlapped, so simulated cycles are
    unchanged; its counted ticks are the guard body's, before the core's
    speculative-overlap discount. *)
let wrap_guard k =
  let sym = Policy.Policy_module.guard_symbol in
  match Kernel.lookup_symbol k sym with
  | Some (Kernel.Native fn) ->
    Kernel.register_native ~overlapped:true k sym (fun k args ->
        let t0 = ticks k in
        let r = Span.time sp_guard (fun () -> fn k args) in
        c.guard_calls <- c.guard_calls + 1;
        c.guard_ticks <- c.guard_ticks + (ticks k - t0);
        r)
  | _ -> failwith "carat_guard is not a registered native"

(** Decision and tier counters of the policy engine, summed over views. *)
let engine_totals e =
  let s = Policy.Engine.merged_stats e and t = Policy.Engine.merged_tier e in
  Policy.Engine.
    [| s.checks; s.entries_scanned; s.denied; t.ic_hits; t.ic_misses |]

let add_engine_delta before after =
  let d i = after.(i) - before.(i) in
  c.checks <- c.checks + d 0;
  c.scanned <- c.scanned + d 1;
  c.denied <- c.denied + d 2;
  c.ic_hits <- c.ic_hits + d 3;
  c.ic_misses <- c.ic_misses + d 4

(* ------------------------------------------------------------------ *)
(* one round's bookkeeping and correctness checks *)

type ctx = {
  traced : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable ops : int;  (** completed operations: packets, or modules *)
  mutable wire_seen : int;  (** device TX frames already checked *)
  mutable wire_bytes : int;  (** and their bytes *)
  mutable unchecked : int;
      (** frames that left the device's window before a check could see
          them: a burst after a long stall *)
  mutable probe_ns : int;
      (** trace-only work and calibration, excluded from run time *)
  mutable calib_ticks : int;
  notes : Buffer.t;  (** first failures, for the report *)
}

let new_ctx ~traced =
  {
    traced;
    attempted = 0;
    failed = 0;
    ops = 0;
    wire_seen = 0;
    wire_bytes = 0;
    unchecked = 0;
    probe_ns = 0;
    calib_ticks = 0;
    notes = Buffer.create 64;
  }

let fail ctx n fmt =
  Printf.ksprintf
    (fun s ->
      if n > 0 then begin
        ctx.failed <- ctx.failed + n;
        if Buffer.length ctx.notes < 400 then
          Printf.bprintf ctx.notes "%s; " s
      end)
    fmt

(** Work done only to feed per-layer metrics; its host time is not part
    of the round's measured run time. *)
let probe ctx f =
  let t0 = Span.now_ns () in
  let r = f () in
  ctx.probe_ns <- ctx.probe_ns + (Span.now_ns () - t0);
  r

(** Run a calibration slice every [every] calls, so that calibration
    samples the host through the measured loop as the workload does. *)
let calib_tick ctx ~every =
  ctx.calib_ticks <- ctx.calib_ticks + 1;
  if ctx.calib_ticks mod every = 0 then probe ctx Calib.run

(** Every frame the device put on the wire since the last check must be
    [size] bytes long and byte-identical to [Frame.build] of its sequence
    number. The device keeps the last 32 frames for the content check;
    frames beyond those are counted as unchecked. *)
let check_wire ctx dev ~size =
  let total = Nic.Device.tx_frames dev in
  let fresh = total - ctx.wire_seen in
  if fresh > 0 then begin
    let bytes = Nic.Device.tx_bytes dev - ctx.wire_bytes in
    fail ctx (abs ((fresh * size) - bytes) / size)
      "%d wire frames carried %d bytes" fresh bytes;
    ctx.wire_seen <- total;
    ctx.wire_bytes <- Nic.Device.tx_bytes dev;
    let recent = Nic.Device.recent_frames dev in
    let bad = ref 0 in
    List.iteri
      (fun i (f : Nic.Device.frame) ->
        if i < fresh then
          match Net.Frame.seq_of f.data with
          | Some seq when f.data = Net.Frame.build ~seq ~size () -> ()
          | _ -> incr bad)
      recent;
    ctx.unchecked <- ctx.unchecked + max 0 (fresh - List.length recent);
    fail ctx !bad "%d wire frame(s) differ from Frame.build" !bad
  end

(** The timed [sendmsg] window, with its checks: the call returns the
    full length, and the frames it let onto the wire are intact. Returns
    the result and the window's simulated cycles. *)
let send ctx (stack : Net.Netstack.t) ~user_buf ~len =
  let m = Kernel.machine stack.kernel in
  let s0 = if ctx.traced then Some (Machine.Model.snapshot m) else None in
  let t0 = Machine.Model.cycles m in
  let r =
    Span.time sp_sendmsg (fun () ->
        Net.Netstack.try_sendmsg stack ~user_buf ~len)
  in
  let lat = Machine.Model.cycles m - t0 in
  (match s0 with
  | Some s0 ->
    let d = Machine.Model.delta s0 (Machine.Model.snapshot m) in
    c.instr <- c.instr + d.s_instructions;
    c.loads <- c.loads + d.s_loads;
    c.stores <- c.stores + d.s_stores;
    c.mmio <- c.mmio + d.s_mmio
  | None -> ());
  ctx.attempted <- ctx.attempted + 1;
  (match r with
  | Ok n when n = len -> ctx.ops <- ctx.ops + 1
  | Ok n -> fail ctx 1 "sendmsg returned %d of %d bytes" n len
  | Error e -> fail ctx 1 "sendmsg: %s" (Net.Netstack.send_error_to_string e));
  check_wire ctx stack.device ~size:len;
  (r, lat)

(** One packet as {!Net.Pktgen.run} and {!Smp_testbed.send_one} send it:
    service completions and build the frame in user memory, charging the
    tool's cycles outside the timed window, then the timed [sendmsg]. *)
let send_packet ctx (stack : Net.Netstack.t) rng ~user_buf ~seq ~size
    ~tool_ns ~tool_instructions =
  calib_tick ctx ~every:100;
  let k = stack.kernel in
  let machine = Kernel.machine k in
  Span.time sp_poll_irq (fun () -> Net.Netstack.poll_interrupts stack);
  let frame = Net.Frame.build ~seq ~size () in
  Kernel.write_string k ~addr:user_buf frame;
  Machine.Model.memcpy machine ~dst:user_buf ~src:(user_buf + 4096) size;
  Machine.Model.retire machine tool_instructions;
  let jitter = 0.97 +. (0.06 *. Machine.Rng.float rng) in
  Machine.Model.add_cycles machine
    (int_of_float (tool_ns *. jitter *. machine.Machine.Model.p.freq_ghz));
  send ctx stack ~user_buf ~len:size

let quantile xs q =
  if Array.length xs = 0 then 0.0
  else Stats.Cdf.quantile (Stats.Cdf.of_samples xs) q
let floats a = Array.map float_of_int a

(* ------------------------------------------------------------------ *)
(* tx-linear64-64b *)

let tx_packets = 3000
let tx_size = 64

let tx_config ~seed technique =
  {
    Testbed.default_config with
    machine = Machine.Presets.r415;
    technique;
    engine = Vm.Engine.Compiled;
    guard_opt = Passes.Pipeline.O_none;
    policy = Policy.Region.kernel_only_padded 64;
    stall_prob = 0.0002;
    seed;
  }

let tx_pktgen ~seed =
  { Net.Pktgen.default_config with count = tx_packets; size = tx_size; seed }

(** A booted testbed with warm simulated caches and inline caches. *)
let tx_setup ~seed technique =
  let tb = Testbed.create ~config:(tx_config ~seed technique) () in
  ignore
    (Testbed.run_pktgen tb
       { (tx_pktgen ~seed:(seed + 999)) with count = 200 });
  tb

(** {!Net.Pktgen.run}, step for step, with spans and checks around the
    calls; must return the identical result. *)
let tx_loop ctx (tb : Testbed.t) (cfg : Net.Pktgen.config) : Net.Pktgen.result
    =
  let stack = tb.stack in
  let k = stack.kernel in
  let machine = Kernel.machine k in
  let rng = Machine.Rng.create cfg.seed in
  let user_buf = Kernel.map_user k ~size:2048 in
  let latencies = Array.make cfg.count 0 in
  let busy0 = Net.Netstack.busy_retries stack in
  let t_start = Machine.Model.cycles machine in
  let sent_n = ref 0 in
  let error = ref None in
  ctx.wire_seen <- Nic.Device.tx_frames stack.device;
  ctx.wire_bytes <- Nic.Device.tx_bytes stack.device;
  (try
     for i = 0 to cfg.count - 1 do
       match
         send_packet ctx stack rng ~user_buf ~seq:i ~size:cfg.size
           ~tool_ns:cfg.tool_ns ~tool_instructions:cfg.tool_instructions
       with
       | Ok _, lat ->
         latencies.(i) <- lat;
         incr sent_n
       | Error e, _ ->
         error := Some e;
         raise Exit
     done
   with Exit -> ());
  let cycles = max 1 (Machine.Model.cycles machine - t_start) in
  let seconds =
    float_of_int cycles /. (machine.Machine.Model.p.freq_ghz *. 1e9)
  in
  {
    sent = !sent_n;
    cycles;
    seconds;
    pps = float_of_int !sent_n /. seconds;
    latencies = Array.sub latencies 0 !sent_n;
    busy_retries = Net.Netstack.busy_retries stack - busy0;
    error = !error;
  }

(* ------------------------------------------------------------------ *)
(* duplex-churn-4cpu *)

let dx_cpus = 4
let dx_count = 4000 (* sends per CPU *)
let dx_size = 128
let dx_churn = 37
let dx_flows = 4096
let dx_rx_per_step = 2

let dx_config ~seed =
  {
    Smp_testbed.default_config with
    cpus = dx_cpus;
    rx_queues = dx_cpus;
    site_cache = true;
    seed;
  }

(** {!Smp_testbed.run_traffic}, step for step, with spans and checks
    around the calls; must return the identical result. Also returns the
    per-send [sendmsg] cycles. *)
let dx_loop ctx (t : Smp_testbed.t) : Smp_testbed.duplex_result * int array
    =
  let count = dx_count and size = dx_size and churn = dx_churn in
  let tool_ns = 6800.0 and tool_instructions = 2600 in
  let n = Array.length t.stacks in
  let rx = Option.get t.rx in
  let engine = Smp.System.engine t.smp in
  Policy.Engine.set_verify engine true;
  let fg = Net.Flowgen.create ~flows:dx_flows ~seed:(t.config.seed + 977) () in
  let rngs =
    Array.init n (fun i -> Machine.Rng.create (t.config.seed + (i * 7919)))
  in
  let user_bufs =
    Array.init n (fun _ -> Kernel.map_user t.kernel ~size:2048)
  in
  let sent = Array.make n 0 in
  let seqs = Array.make n 0 in
  let injected = ref 0 in
  let errors = ref 0 in
  let send_lats = ref [] in
  let all_cpus = Smp.System.cpus t.smp in
  let start_cycles = Array.map Smp.Cpu.cycles all_cpus in
  let rx_before = Array.init n (fun q -> Net.Rx.frames rx ~q) in
  let churn_policy = ref t.config.policy in
  ctx.wire_seen <- Nic.Device.tx_frames t.device;
  ctx.wire_bytes <- Nic.Device.tx_bytes t.device;
  let send_one cpu =
    match
      send_packet ctx t.stacks.(cpu) rngs.(cpu) ~user_buf:user_bufs.(cpu)
        ~seq:seqs.(cpu) ~size ~tool_ns ~tool_instructions
    with
    | Ok _, lat ->
      send_lats := lat :: !send_lats;
      true
    | Error _, _ -> false
  in
  let steps =
    Array.init n (fun cpu () ->
        let churning =
          churn > 0 && cpu = 0
          && t.config.technique = Testbed.Carat
          && seqs.(cpu) mod churn = churn - 1
        in
        if churning then begin
          churn_policy := Smp_testbed.rotate !churn_policy;
          let t0 = ticks t.kernel in
          let rc =
            Span.time sp_publish (fun () ->
                Policy.Policy_module.replace_policy t.policy_module
                  ~default_allow:(Policy.Engine.default_allow engine)
                  !churn_policy)
          in
          if ctx.traced then begin
            c.publishes <- c.publishes + 1;
            c.publish_ticks <- c.publish_ticks + (ticks t.kernel - t0)
          end;
          if rc <> 0 then begin
            incr errors;
            fail ctx 1 "policy replace rc=%d" rc
          end;
          seqs.(cpu) <- seqs.(cpu) + 1;
          sent.(cpu) < count
        end
        else begin
          for _ = 1 to dx_rx_per_step do
            let arr = Net.Flowgen.next fg in
            let payload = Net.Flowgen.payload arr ~seq:!injected in
            incr injected;
            let qi = Nic.Device.rx_queue_for t.device ~hash:arr.hash in
            let stamp = Smp.Cpu.cycles all_cpus.(qi) in
            ignore
              (Span.time sp_rx_inject (fun () ->
                   Nic.Device.rx_inject ~hash:arr.hash ~stamp t.device payload)
                : bool)
          done;
          ignore
            (Span.time sp_rx_service (fun () -> Net.Rx.service rx ~q:cpu)
              : int);
          let ok = send_one cpu in
          seqs.(cpu) <- seqs.(cpu) + 1;
          if ok then sent.(cpu) <- sent.(cpu) + 1 else incr errors;
          sent.(cpu) < count && seqs.(cpu) < count * 4
        end)
  in
  ignore (Smp.System.run t.smp steps : int list * Smp.Sched.stats);
  Array.iteri
    (fun i cpu ->
      Smp.Cpu.make_current cpu t.kernel engine;
      ignore (Net.Rx.flush rx ~q:i : int))
    all_cpus;
  let freq = t.config.machine.Machine.Model.freq_ghz in
  let per_cpu =
    Array.mapi
      (fun i cpu ->
        let cyc = Smp.Cpu.cycles cpu - start_cycles.(i) in
        let secs = float_of_int (max 1 cyc) /. (freq *. 1e9) in
        let rxf = Net.Rx.frames rx ~q:i - rx_before.(i) in
        {
          Smp_testbed.dc_cpu = i;
          dc_sent = sent.(i);
          dc_rx_frames = rxf;
          dc_cycles = cyc;
          dc_seconds = secs;
          dc_tx_pps = float_of_int sent.(i) /. secs;
          dc_rx_pps = float_of_int rxf /. secs;
        })
      all_cpus
  in
  let total_sent = Array.fold_left ( + ) 0 sent in
  let total_rx =
    Array.fold_left (fun a (r : Smp_testbed.duplex_cpu) -> a + r.dc_rx_frames)
      0 per_cpu
  in
  let elapsed =
    Array.fold_left
      (fun a (r : Smp_testbed.duplex_cpu) -> max a r.dc_seconds)
      0.0 per_cpu
  in
  let rs = Smp.Rcu.stats (Smp.System.rcu t.smp) in
  Policy.Engine.set_verify engine false;
  let sum f =
    Array.fold_left (fun a (r : Smp_testbed.duplex_cpu) -> a + f r.dc_cpu) 0
      per_cpu
  in
  ( {
      d_per_cpu = per_cpu;
      d_sent = total_sent;
      d_injected = !injected;
      d_rx_frames = total_rx;
      d_rx_dropped = Nic.Device.rx_dropped t.device;
      d_elapsed_seconds = elapsed;
      d_tx_pps = float_of_int total_sent /. elapsed;
      d_rx_pps = float_of_int total_rx /. elapsed;
      d_latencies = Net.Rx.all_latencies rx;
      d_rx_irqs = sum (fun q -> Net.Rx.irqs rx ~q);
      d_rx_polls = sum (fun q -> Net.Rx.polls rx ~q);
      d_budget_exhausted = sum (fun q -> Net.Rx.budget_exhausted rx ~q);
      d_timer_kicks = sum (fun q -> Net.Rx.timer_kicks rx ~q);
      d_publications = rs.publications;
      d_retired = rs.retired;
      d_ipis = rs.ipis_taken;
      d_stale_allows = Policy.Engine.stale_allows engine;
      d_send_errors = !errors;
    },
    Array.of_list (List.rev !send_lats) )

(* ------------------------------------------------------------------ *)
(* module-load *)

let ld_tamper_every = 4

(** Driver shape of one module. *)
type shape = { scale : int; txq : int; rxq : int; rogue : bool }

(** The round's modules: every combination of padding scale, TX and RX
    queue count once, a quarter of them with the debug backdoor, in an
    order and backdoor assignment drawn from the seed. A balanced set
    keeps the round's compile work the same for every seed. *)
let ld_shapes ~seed =
  let rng = Machine.Rng.create seed in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Machine.Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let combos =
    List.concat_map
      (fun scale ->
        List.concat_map
          (fun txq -> List.map (fun rxq -> (scale, txq, rxq)) [ 0; 1; 2; 4 ])
          [ 1; Nic.Regs.max_tx_queues ])
      [ 8; 10; 12; 14 ]
  in
  let rogue = shuffle (Array.init (List.length combos) (fun i -> i mod 4 = 0)) in
  shuffle
    (Array.of_list
       (List.mapi
          (fun i (scale, txq, rxq) -> { scale; txq; rxq; rogue = rogue.(i) })
          combos))

let generate s =
  Nic.Driver_gen.generate ~module_scale:s.scale ~with_rogue:s.rogue
    ~tx_queues:s.txq ~rx_queues:s.rxq ()

(** A kernel that demands signatures and certificates, with the policy
    module and a KIR runner installed. *)
let ld_boot ~seed =
  let k =
    Span.time sp_create (fun () ->
        Kernel.create ~require_signature:true ~require_certificate:true ~seed
          Machine.Presets.r415)
  in
  ignore (Vm.Engine.install ~kind:Vm.Engine.Interp k : Vm.Interp.state);
  let pm = Policy.Policy_module.install k in
  Policy.Policy_module.set_policy pm Policy.Region.kernel_only;
  k

(** Remove the first guard call after signing: the tampering a loader
    must catch. *)
let strip_first_guard (m : Kir.Types.modul) =
  let guard = Passes.Guard_injection.guard_symbol_default in
  let rec drop = function
    | [] -> None
    | Kir.Types.Call { callee; _ } :: rest when callee = guard -> Some rest
    | i :: rest -> Option.map (fun r -> i :: r) (drop rest)
  in
  List.exists
    (fun (f : Kir.Types.func) ->
      List.exists
        (fun (b : Kir.Types.block) ->
          match drop b.body with
          | Some body ->
            b.body <- body;
            true
          | None -> false)
        f.blocks)
    m.funcs

(** One module through the whole chain, with its checks: a clean module
    loads and unloads, a tampered one is refused for its signature. *)
let ld_one ctx k ~unopt i s =
  calib_tick ctx ~every:1;
  let m = Span.time sp_generate (fun () -> generate s) in
  ignore
    (Span.time sp_compile (fun () ->
         Passes.Pipeline.compile ~opt:Passes.Pipeline.O_aggressive m)
      : (string * Passes.Pass.result) list);
  if ctx.traced then begin
    c.static_guards <- c.static_guards + Passes.Guard_injection.count_guards m;
    c.unopt_guards <- c.unopt_guards + probe ctx (fun () -> unopt i s)
  end;
  ctx.attempted <- ctx.attempted + 1;
  if i mod ld_tamper_every = ld_tamper_every - 1 then begin
    if not (strip_first_guard m) then fail ctx 1 "module %d has no guard" i
    else
      match Span.time sp_insmod (fun () -> Kernel.insmod k m) with
      | Error (Kernel.Signature_rejected _) -> ctx.ops <- ctx.ops + 1
      | Error e ->
        fail ctx 1 "tampered module %d: %s" i (Kernel.load_error_to_string e)
      | Ok _ -> fail ctx 1 "tampered module %d was accepted" i
  end
  else begin
    if ctx.traced then
      probe ctx (fun () ->
          match
            Span.time sp_validate (fun () -> Analysis.Certify.validate m)
          with
          | Ok () -> ()
          | Error e ->
            fail ctx 1 "module %d: %s" i
              (Analysis.Certify.validate_error_to_string e));
    match Span.time sp_insmod (fun () -> Kernel.insmod k m) with
    | Error e ->
      fail ctx 1 "module %d: %s" i (Kernel.load_error_to_string e)
    | Ok lm -> (
      match Span.time sp_rmmod (fun () -> Kernel.rmmod k lm) with
      | Ok () -> ctx.ops <- ctx.ops + 1
      | Error _ -> fail ctx 1 "module %d would not unload" i)
  end

(* ------------------------------------------------------------------ *)
(* rounds *)

(** What a round hands back: host times, and a digest of its simulated
    results, which must be identical in every round. *)
type round = { setup_ns : int; run_ns : int; ops : int; digest : string }

(** Simulated end results, for the report and the per-layer output. *)
type sim = {
  tx_pps : float;
  sendmsg_lat : int array;
  guard_overhead_pct : float;
  rx_pps : float;
  rx_lat : float array;
  rx_loss : float;
}

let no_sim =
  {
    tx_pps = 0.0;
    sendmsg_lat = [||];
    guard_overhead_pct = 0.0;
    rx_pps = 0.0;
    rx_lat = [||];
    rx_loss = 0.0;
  }

(** Time [setup], then the loop [run] on what it built. *)
let timed_round ctx ~setup ~run summarize =
  let t0 = Span.now_ns () in
  let st = setup () in
  let t1 = Span.now_ns () and p1 = ctx.probe_ns in
  Span.on := ctx.traced;
  let r = run st in
  Span.on := false;
  let t2 = Span.now_ns () in
  ( {
      setup_ns = t1 - t0;
      run_ns = t2 - t1 - (ctx.probe_ns - p1);
      ops = ctx.ops;
      digest = Digest.string (Marshal.to_string (summarize r) []);
    },
    r )

(** Trace-only control-plane probes for the packet workloads, whose
    compile and insert happen inside the testbed's constructor: boot a
    spare kernel, and compile and validate a copy of their driver. *)
let control_probes ctx ~seed ~machine ~gen ~opt =
  probe ctx (fun () ->
      Span.on := true;
      ignore
        (Span.time sp_create (fun () ->
             Kernel.create ~require_signature:true ~require_certificate:true
               ~seed machine)
          : Kernel.t);
      let m = Span.time sp_generate gen in
      ignore
        (Span.time sp_compile (fun () -> Passes.Pipeline.compile ~opt m)
          : (string * Passes.Pass.result) list);
      (match Span.time sp_validate (fun () -> Analysis.Certify.validate m) with
      | Ok () -> ()
      | Error e ->
        fail ctx 1 "driver: %s" (Analysis.Certify.validate_error_to_string e));
      Span.on := false;
      (* collect the spare kernel now, not during the measured run *)
      Gc.full_major ())

let tx_round ~seed ctx =
  let setup () =
    let tb = tx_setup ~seed Testbed.Carat in
    if ctx.traced then begin
      control_probes ctx ~seed ~machine:Machine.Presets.r415
        ~gen:(fun () -> Nic.Driver_gen.generate ())
        ~opt:Passes.Pipeline.O_none;
      wrap_guard tb.kernel
    end;
    (tb, engine_totals (Policy.Policy_module.engine tb.policy_module))
  in
  let run (tb, e0) =
    let busy0 = Net.Netstack.busy_retries tb.Testbed.stack in
    let des0 = Net.Netstack.deschedules tb.stack in
    let r = tx_loop ctx tb (tx_pktgen ~seed) in
    let e1 = engine_totals (Policy.Policy_module.engine tb.policy_module) in
    fail ctx e1.(2) "%d guard denies under the conforming policy" e1.(2);
    if ctx.traced then begin
      add_engine_delta e0 e1;
      c.pkts <- c.pkts + r.sent;
      c.sent <- c.sent + r.sent;
      c.busy_retries <-
        c.busy_retries + Net.Netstack.busy_retries tb.stack - busy0;
      c.deschedules <- c.deschedules + Net.Netstack.deschedules tb.stack - des0;
      c.static_guards <-
        c.static_guards + Passes.Guard_injection.count_guards tb.driver_kir;
      c.unopt_guards <-
        c.unopt_guards + Passes.Guard_injection.count_guards tb.driver_kir
    end;
    r
  in
  timed_round ctx ~setup ~run (fun (r : Net.Pktgen.result) -> r)

let dx_round ~seed ctx =
  let setup () =
    let tb = Smp_testbed.create ~config:(dx_config ~seed) () in
    if ctx.traced then begin
      control_probes ctx ~seed ~machine:tb.config.machine
        ~gen:(fun () ->
          Nic.Driver_gen.generate ~module_scale:tb.config.module_scale
            ~tx_queues:Nic.Regs.max_tx_queues ~rx_queues:dx_cpus ())
        ~opt:tb.config.guard_opt;
      wrap_guard tb.kernel
    end;
    (tb, engine_totals (Policy.Policy_module.engine tb.policy_module))
  in
  let run (tb, e0) =
    let r, send_lats = dx_loop ctx tb in
    let e1 = engine_totals (Policy.Policy_module.engine tb.policy_module) in
    fail ctx e1.(2) "%d guard denies under the conforming policy" e1.(2);
    fail ctx r.d_stale_allows "%d stale allows" r.d_stale_allows;
    ctx.attempted <- ctx.attempted + r.d_injected;
    ctx.ops <- ctx.ops + r.d_rx_frames;
    let lost = r.d_injected - r.d_rx_frames - r.d_rx_dropped in
    fail ctx (abs lost) "RX delivered + dropped = injected %+d" lost;
    if ctx.traced then begin
      add_engine_delta e0 e1;
      c.pkts <- c.pkts + r.d_sent + r.d_rx_frames;
      c.sent <- c.sent + r.d_sent;
      Array.iter
        (fun s ->
          c.busy_retries <- c.busy_retries + Net.Netstack.busy_retries s;
          c.deschedules <- c.deschedules + Net.Netstack.deschedules s)
        tb.stacks;
      c.rx_frames <- c.rx_frames + r.d_rx_frames;
      c.rx_polls <- c.rx_polls + r.d_rx_polls;
      c.rx_exhausted <- c.rx_exhausted + r.d_budget_exhausted;
      c.rx_kicks <- c.rx_kicks + r.d_timer_kicks;
      c.ipis <- c.ipis + r.d_ipis;
      c.retired <- c.retired + r.d_retired;
      let g = Passes.Guard_injection.count_guards tb.driver_kir in
      c.static_guards <- c.static_guards + g;
      c.unopt_guards <- c.unopt_guards + g
    end;
    (r, send_lats)
  in
  timed_round ctx ~setup ~run (fun x -> x)

let ld_round ~seed ~unopt ctx =
  let shapes = ld_shapes ~seed in
  let setup () =
    Span.on := ctx.traced;
    let k = ld_boot ~seed in
    Span.on := false;
    k
  in
  let run k =
    Array.iteri (fun i s -> ld_one ctx k ~unopt i s) shapes;
    List.length (Kernel.loaded_modules k)
  in
  timed_round ctx ~setup ~run (fun n -> (shapes, n))

(* ------------------------------------------------------------------ *)
(* output *)

let median xs = Stats.Summary.median (Array.of_list xs)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

let ratio a b = if b = 0 then 0.0 else float a /. float b
let ms_of s = Span.mean_ns s /. 1e6

(** The per-layer metrics of a traced run; [overhead] is the traced
    rounds' host rate loss against the untraced rounds'. *)
let per_layer (sim : sim) ~overhead =
  let per_pkt n = ratio n c.sent in
  let per_round n = ratio n c.traced_rounds in
  let pct a b = if b = 0 then 0.0 else 100.0 *. float (b - a) /. float b in
  [
    ("policy.guard_calls_per_pkt", "count", ratio c.guard_calls c.pkts);
    ("policy.guard_host_ns", "ns", Span.mean_ns sp_guard);
    ( "policy.guard_sim_cycles",
      "cycles",
      ratio c.guard_ticks c.guard_calls /. float Machine.Model.ticks_per_cycle );
    ("policy.scanned_per_check", "count", ratio c.scanned c.checks);
    ("policy.ic_hit_ratio", "ratio", ratio c.ic_hits (c.ic_hits + c.ic_misses));
    ("policy.denied", "count", float c.denied);
    ( "vm.self_ns_per_pkt",
      "ns",
      per_pkt (Span.self_ns sp_sendmsg) );
    ("net.sendmsg_host_ns", "ns", Span.mean_ns sp_sendmsg);
    ("net.busy_retries_per_kpkt", "count", 1000.0 *. per_pkt c.busy_retries);
    ("net.deschedules_per_kpkt", "count", 1000.0 *. per_pkt c.deschedules);
    ("net.rx_service_host_ns", "ns", Span.mean_ns sp_rx_service);
    ("net.rx_frames_per_poll", "count", ratio c.rx_frames c.rx_polls);
    ("net.rx_budget_exhausted_ratio", "ratio", ratio c.rx_exhausted c.rx_polls);
    ("net.rx_timer_kicks", "count", per_round c.rx_kicks);
    ("nic.poll_irq_host_ns", "ns", Span.mean_ns sp_poll_irq);
    ("nic.rx_inject_host_ns", "ns", Span.mean_ns sp_rx_inject);
    ("smp.publish_host_us", "us", Span.mean_ns sp_publish /. 1e3);
    ( "smp.publish_sim_cycles",
      "cycles",
      ratio c.publish_ticks c.publishes /. float Machine.Model.ticks_per_cycle );
    ("smp.ipis_per_publish", "count", ratio c.ipis c.publishes);
    ("smp.retired_per_publish", "count", ratio c.retired c.publishes);
    ("machine.instr_per_pkt", "count", per_pkt c.instr);
    ("machine.loads_per_pkt", "count", per_pkt c.loads);
    ("machine.stores_per_pkt", "count", per_pkt c.stores);
    ("machine.mmio_per_pkt", "count", per_pkt c.mmio);
    ("kernel.create_s", "s", Span.mean_ns sp_create /. 1e9);
    ("kernel.insmod_ms", "ms", ms_of sp_insmod);
    ("kernel.rmmod_ms", "ms", ms_of sp_rmmod);
    ("kir.generate_ms", "ms", ms_of sp_generate);
    ("passes.compile_ms", "ms", ms_of sp_compile);
    ("passes.static_guards", "count", per_round c.static_guards);
    ( "passes.guards_removed_pct",
      "%",
      pct c.static_guards c.unopt_guards );
    ("analysis.validate_ms", "ms", ms_of sp_validate);
    ("trace.overhead_pct", "%", overhead);
    ("sim_tx_pps", "1/s", sim.tx_pps);
    ("sim_sendmsg_p50_cycles", "cycles", quantile (floats sim.sendmsg_lat) 0.5);
    ("sim_sendmsg_p99_cycles", "cycles", quantile (floats sim.sendmsg_lat) 0.99);
    ("sim_guard_overhead_pct", "%", sim.guard_overhead_pct);
    ("sim_rx_pps", "1/s", sim.rx_pps);
    ("sim_rx_p50_cycles", "cycles", quantile sim.rx_lat 0.5);
    ("sim_rx_p99_cycles", "cycles", quantile sim.rx_lat 0.99);
    ("sim_rx_p999_cycles", "cycles", quantile sim.rx_lat 0.999);
    ("sim_rx_loss_ratio", "ratio", sim.rx_loss);
  ]

(* ------------------------------------------------------------------ *)
(* runs *)

(** Rounds until [seconds] have passed (at least three untraced, and as
    many traced when tracing). Rounds alternate untraced and traced when
    [trace] is set. Each round's simulated digest must equal the first
    round's, which makes traced-against-untraced parity part of every
    traced run. Returns the rounds and the first round's value. *)
let rounds ~seconds ~trace f =
  let start = Span.now_ns () in
  let min_rounds = if trace then 6 else 3 in
  let first = ref None in
  let rec go i acc =
    let elapsed = float (Span.now_ns () - start) /. 1e9 in
    if i >= min_rounds && elapsed >= seconds then List.rev acc
    else begin
      (* drop the previous round's testbed so each round starts from the
         same heap and peak memory is one round's *)
      Gc.full_major ();
      let ctx = new_ctx ~traced:(trace && i mod 2 = 1) in
      if ctx.traced then c.traced_rounds <- c.traced_rounds + 1;
      let r, v = f ctx in
      (match !first with
      | None -> first := Some v
      | Some _ -> ());
      go (i + 1) ((r, ctx) :: acc)
    end
  in
  let rs = go 0 [] in
  (match rs with
  | (r0, _) :: rest ->
    List.iteri
      (fun i ((r : round), ctx) ->
        if r.digest <> r0.digest then
          fail ctx 1 "round %d's simulated results differ from round 0's"
            (i + 1))
      rest
  | [] -> ());
  (rs, Option.get !first)

(** The simulated results of each workload, from its first round. *)
let run_workload name ~seed ~seconds ~trace =
  match name with
  | "tx-linear64-64b" ->
    let base =
      Testbed.run_pktgen (tx_setup ~seed Testbed.Baseline) (tx_pktgen ~seed)
    in
    let rs, (r : Net.Pktgen.result) =
      rounds ~seconds ~trace (tx_round ~seed)
    in
    (match rs with
    | (_, ctx) :: _ ->
      fail ctx (tx_packets - base.sent) "baseline twin sent %d of %d"
        base.sent tx_packets
    | [] -> ());
    ( rs,
      {
        no_sim with
        tx_pps = r.pps;
        sendmsg_lat = r.latencies;
        guard_overhead_pct = 100.0 *. (base.pps -. r.pps) /. base.pps;
      } )
  | "duplex-churn-4cpu" ->
    let rs, ((r : Smp_testbed.duplex_result), send_lats) =
      rounds ~seconds ~trace (dx_round ~seed)
    in
    ( rs,
      {
        no_sim with
        tx_pps = r.d_tx_pps;
        sendmsg_lat = send_lats;
        rx_pps = r.d_rx_pps;
        rx_lat = r.d_latencies;
        rx_loss = ratio r.d_rx_dropped r.d_injected;
      } )
  | "module-load" ->
    let cache = Hashtbl.create 16 in
    let unopt i s =
      match Hashtbl.find_opt cache i with
      | Some g -> g
      | None ->
        let m = generate s in
        ignore
          (Passes.Pipeline.compile ~opt:Passes.Pipeline.O_none m
            : (string * Passes.Pass.result) list);
        let g = Passes.Guard_injection.count_guards m in
        Hashtbl.add cache i g;
        g
    in
    let rs, _ = rounds ~seconds ~trace (ld_round ~seed ~unopt) in
    (rs, no_sim)
  | _ ->
    prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
    exit 2

(** Operations per host second over a set of rounds: total work over
    total run time. Host speed on a shared machine drifts over seconds,
    so the aggregate of a long run is steadier than any one round. *)
let rate rs =
  let ops, ns =
    List.fold_left (fun (o, n) ((r : round), _) -> (o + r.ops, n + r.run_ns))
      (0, 0) rs
  in
  float ops /. (float ns /. 1e9)

(** The report: every end-to-end figure by name, including those that
    exist only on some workloads (n/a elsewhere). *)
let print_report name ~seed rs (sim : sim) ~setup_s ~ops_per_s ~rss
    ~attempted ~failed =
  let traced = List.length (List.filter (fun (_, x) -> x.traced) rs) in
  Printf.printf "# %s seed %d: %d rounds (%d traced), %d ops per round\n" name
    seed (List.length rs) traced
    (match rs with (r, _) :: _ -> r.ops | [] -> 0);
  let packets = sim.tx_pps > 0.0 in
  let row metric unit_ v =
    match v with
    | Some v -> Printf.printf "#   %-26s %14.4f %s\n" metric v unit_
    | None -> Printf.printf "#   %-26s %14s\n" metric "n/a"
  in
  let when_ b v = if b then Some v else None in
  row "setup_s" "s" (Some setup_s);
  row "peak_rss_mb" "MB" (Some rss);
  row "fail_ratio" "ratio" (Some (ratio failed attempted));
  row "host_pkts_per_s" "1/s" (when_ packets ops_per_s);
  row "host_loads_per_s" "1/s" (when_ (not packets) ops_per_s);
  row "sim_tx_pps" "1/s" (when_ packets sim.tx_pps);
  row "sim_sendmsg_p50_cycles" "cycles"
    (when_ packets (quantile (floats sim.sendmsg_lat) 0.5));
  row "sim_sendmsg_p99_cycles" "cycles"
    (when_ packets (quantile (floats sim.sendmsg_lat) 0.99));
  row "sim_guard_overhead_pct" "%"
    (when_ (name = "tx-linear64-64b") sim.guard_overhead_pct);
  let rx = sim.rx_pps > 0.0 in
  row "sim_rx_pps" "1/s" (when_ rx sim.rx_pps);
  row "sim_rx_p50_cycles" "cycles" (when_ rx (quantile sim.rx_lat 0.5));
  row "sim_rx_p99_cycles" "cycles" (when_ rx (quantile sim.rx_lat 0.99));
  row "sim_rx_p999_cycles" "cycles" (when_ rx (quantile sim.rx_lat 0.999));
  row "sim_rx_loss_ratio" "ratio" (when_ rx sim.rx_loss);
  let unchecked = List.fold_left (fun a (_, x) -> a + x.unchecked) 0 rs in
  if unchecked > 0 then
    Printf.printf
      "# %d wire frames were checked for length only (burst after a stall)\n"
      unchecked;
  List.iter
    (fun (_, ctx) ->
      if Buffer.length ctx.notes > 0 then
        Printf.printf "# failures: %s\n" (Buffer.contents ctx.notes))
    rs

(** Host time per span over the traced rounds, with each span's self
    time as a share of the traced rounds' run and probe time. *)
let print_spans rs =
  let traced_ns =
    List.fold_left
      (fun a ((r : round), ctx) ->
        if ctx.traced then a + r.run_ns + ctx.probe_ns else a)
      0 rs
  in
  Printf.printf "#   %-18s %9s %11s %11s %7s\n" "span" "count" "total_ms"
    "self_ms" "share";
  List.iter
    (fun (s : Span.t) ->
      if s.count > 0 then
        Printf.printf "#   %-18s %9d %11.2f %11.2f %6.1f%%\n" s.name s.count
          (float s.total_ns /. 1e6)
          (float (Span.self_ns s) /. 1e6)
          (100.0 *. float (Span.self_ns s) /. float (max 1 traced_ns)))
    (Span.all ())

let bench ~workload ~seed ~seconds ~trace =
  let rs, sim = run_workload workload ~seed ~seconds ~trace in
  let untraced = List.filter (fun (_, x) -> not x.traced) rs in
  let traced = List.filter (fun (_, x) -> x.traced) rs in
  let med f l = median (List.map (fun (r, _) -> f r) l) in
  let raw_setup_s = med (fun r -> float r.setup_ns /. 1e9) untraced in
  let raw_ops_per_s = rate untraced in
  let setup_s = Calib.scale raw_setup_s in
  let ops_per_s = raw_ops_per_s /. Calib.scale 1.0 in
  let rss = peak_rss_mb () in
  let attempted = List.fold_left (fun a (_, x) -> a + x.attempted) 0 rs in
  let failed = List.fold_left (fun a (_, x) -> a + x.failed) 0 rs in
  print_report workload ~seed rs sim ~setup_s ~ops_per_s ~rss ~attempted
    ~failed;
  Printf.printf
    "# host times calibrated: %.1f ns per calibration iteration (nominal \
     %.0f); uncalibrated setup_s %.4f, ops per s %.1f\n"
    (Calib.iteration_ns ()) Calib.nominal_ns raw_setup_s raw_ops_per_s;
  let metrics =
    if trace then begin
      print_spans rs;
      let overhead =
        100.0 *. (raw_ops_per_s -. rate traced) /. raw_ops_per_s
      in
      List.map
        (fun (name, unit_, v) ->
          match unit_ with
          | "s" | "ms" | "us" | "ns" -> (name, unit_, Calib.scale v)
          | _ -> (name, unit_, v))
        (per_layer sim ~overhead)
    end
    else
      [
        ("setup_s", "s", setup_s);
        ("peak_rss_mb", "MB", rss);
        ("host_ops_per_s", "1/s", ops_per_s);
      ]
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

(** The benchmark's own loops against the library's, and traced against
    untraced, on fresh testbeds from one seed: all must be identical. *)
let parity ~seed =
  let ok = ref true in
  let check what same =
    Printf.printf "parity %-44s %s\n" what (if same then "ok" else "DIFFERS");
    if not same then ok := false
  in
  let bench_tx ~traced =
    let ctx = new_ctx ~traced in
    let tb = tx_setup ~seed Testbed.Carat in
    if traced then wrap_guard tb.kernel;
    Span.on := traced;
    let r = tx_loop ctx tb (tx_pktgen ~seed) in
    Span.on := false;
    (r, ctx.failed)
  in
  let lib_tx = Testbed.run_pktgen (tx_setup ~seed Carat) (tx_pktgen ~seed) in
  let tx_plain, f0 = bench_tx ~traced:false in
  let tx_traced, f1 = bench_tx ~traced:true in
  check "tx loop = Testbed.run_pktgen" (tx_plain = lib_tx && f0 = 0);
  check "tx loop traced = untraced" (tx_traced = tx_plain && f1 = 0);
  let bench_dx ~traced =
    let ctx = new_ctx ~traced in
    let tb = Smp_testbed.create ~config:(dx_config ~seed) () in
    if traced then wrap_guard tb.kernel;
    Span.on := traced;
    let r, _ = dx_loop ctx tb in
    Span.on := false;
    (r, ctx.failed)
  in
  let lib_dx =
    Smp_testbed.run_traffic ~count:dx_count ~size:dx_size ~churn:dx_churn
      ~flows:dx_flows ~rx_per_step:dx_rx_per_step
      (Smp_testbed.create ~config:(dx_config ~seed) ())
  in
  let dx_plain, f0 = bench_dx ~traced:false in
  let dx_traced, f1 = bench_dx ~traced:true in
  check "duplex loop = Smp_testbed.run_traffic" (dx_plain = lib_dx && f0 = 0);
  check "duplex loop traced = untraced" (dx_traced = dx_plain && f1 = 0);
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and mode_parity = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics");
    ]
  in
  Arg.parse specs
    (function
      | "parity" -> mode_parity := true
      | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !mode_parity then parity ~seed:!seed
  else if !workload = "" || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end
  else
    bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
