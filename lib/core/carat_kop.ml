(** CARAT KOP — an OCaml reproduction of "CARAT KOP: Towards Protecting
    the Core HPC Kernel from Linux Kernel Modules" (ROSS '23).

    This is the library's public entry point. The pieces:

    - {!Kir}: the kernel IR modules are written in (types, builder,
      printer/parser, verifier, CFG)
    - {!Passes}: the CARAT KOP compiler — guard injection, attestation,
      signing, optional guard optimizations, pass manager
    - {!Analysis}: forward dataflow over the KIR CFG, the
      guard-completeness certifier, and the [kop_lint] KIR lints
    - {!Machine}: cycle cost models of the paper's two testbed machines
    - {!Kernel}: the simulated core kernel (address space, module loader,
      ioctl devices, panic)
    - {!Vm}: the KIR interpreter that runs module code
    - {!Policy}: the policy module — [carat_guard], the 64-entry region
      table, its page shadow, and the splay and interval trees
    - {!Nic}: the e1000e-class device model and the KIR driver
    - {!Net}: raw-frame workload generation and the sendmsg path
    - {!Fault}: seeded fault-injection campaigns and containment checking
    - {!Stats}: summaries, CDFs, histograms
    - {!Testbed}: one-call assembly of the full evaluation stack
    - {!Experiments}: runners reproducing every figure in the paper

    Quickstart (see [examples/quickstart.ml]):
    {[
      let tb =
        Carat_kop.Testbed.create
          ~config:{ Carat_kop.Testbed.default_config with
                    technique = Carat_kop.Testbed.Carat } ()
      in
      let r =
        Carat_kop.Testbed.run_pktgen tb
          { Carat_kop.Net.Pktgen.default_config with count = 1000 }
      in
      Printf.printf "throughput: %.0f pps\n" r.Carat_kop.Net.Pktgen.pps
    ]} *)

module Kir = Kir
module Passes = Passes
module Analysis = Analysis
module Machine = Machine
module Kernel = Kernel
module Kernsvc = Kernsvc
module Vm = Vm
module Policy = Policy
module Nic = Nic
module Net = Net
module Fault = Fault
module Smp = Smp
module Sanitizer = Sanitizer
module Stats = Stats
module Testbed = Testbed
module Smp_testbed = Smp_testbed
module Race_suites = Race_suites
module Experiments = Experiments

(** Version of this reproduction. *)
let version = "1.0.0"

(** One-line provenance string for banners. *)
let banner =
  "CARAT KOP reproduction " ^ version
  ^ " (compiler-guarded kernel-module protection, ROSS '23)"
