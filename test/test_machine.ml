(* Machine model: PRNG, caches, branch predictor, cost model, presets. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---------- rng ---------- *)

let test_rng_deterministic () =
  let a = Machine.Rng.create 42 and b = Machine.Rng.create 42 in
  for _ = 1 to 100 do
    checki "same stream" (Machine.Rng.next a) (Machine.Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Machine.Rng.create 1 and b = Machine.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Machine.Rng.next a <> Machine.Rng.next b then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_rng_bounds () =
  let r = Machine.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Machine.Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Machine.Rng.float r in
    checkb "unit interval" true (f >= 0.0 && f < 1.0)
  done

let test_rng_flip_bias () =
  let r = Machine.Rng.create 9 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Machine.Rng.flip r 0.25 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  checkb "roughly 25%" true (frac > 0.22 && frac < 0.28)

let test_rng_jitter () =
  let r = Machine.Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Machine.Rng.jitter r ~mean:100 ~max:500 in
    checkb "jitter bounds" true (v >= 0 && v <= 500)
  done

let test_rng_split_independent () =
  let parent = Machine.Rng.create 5 in
  let c1 = Machine.Rng.split parent ~tag:1 in
  let c2 = Machine.Rng.split parent ~tag:2 in
  checkb "children differ" true (Machine.Rng.next c1 <> Machine.Rng.next c2)

(* ---------- cache ---------- *)

let mk_cache () =
  Machine.Cache.create ~name:"t" ~size_bytes:4096 ~assoc:2 ~line_size:64

let test_cache_miss_then_hit () =
  let c = mk_cache () in
  checkb "cold miss" false (Machine.Cache.access c 0x1000);
  checkb "warm hit" true (Machine.Cache.access c 0x1000);
  checkb "same line hit" true (Machine.Cache.access c 0x1030);
  checkb "different line miss" false (Machine.Cache.access c 0x2000)

let test_cache_eviction_lru () =
  let c = mk_cache () in
  (* 2-way set: three distinct tags in the same set evict the LRU *)
  let set_stride = 4096 / 2 in
  ignore (Machine.Cache.access c 0);
  ignore (Machine.Cache.access c set_stride);
  (* touch first again so the second is LRU *)
  ignore (Machine.Cache.access c 0);
  ignore (Machine.Cache.access c (2 * set_stride));
  checkb "first survives" true (Machine.Cache.access c 0);
  checkb "second evicted" false (Machine.Cache.access c set_stride)

let test_cache_stats_and_flush () =
  let c = mk_cache () in
  ignore (Machine.Cache.access c 0);
  ignore (Machine.Cache.access c 0);
  checkf "hit rate 0.5" 0.5 (Machine.Cache.hit_rate c);
  Machine.Cache.flush c;
  checkb "flushed" false (Machine.Cache.access c 0)

let test_cache_lines_touched () =
  let c = mk_cache () in
  checki "within line" 1 (Machine.Cache.lines_touched c 0 8);
  checki "straddles" 2 (Machine.Cache.lines_touched c 60 8);
  checki "big range" 3 (Machine.Cache.lines_touched c 0 129);
  checki "zero" 0 (Machine.Cache.lines_touched c 0 0)

let test_cache_perturb () =
  let c = mk_cache () in
  for i = 0 to 63 do
    ignore (Machine.Cache.access c (i * 64))
  done;
  let rng = Machine.Rng.create 3 in
  Machine.Cache.perturb c rng ~fraction:1.0;
  Machine.Cache.reset_stats c;
  let misses = ref 0 in
  for i = 0 to 63 do
    if not (Machine.Cache.access c (i * 64)) then incr misses
  done;
  checkb "perturbation caused misses" true (!misses > 0)

let test_cache_rejects_bad_geometry () =
  match
    Machine.Cache.create ~name:"bad" ~size_bytes:4096 ~assoc:2 ~line_size:48
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted non-power-of-two line size"

(* ---------- predictor ---------- *)

let test_predictor_learns_monotone () =
  let p = Machine.Predictor.create ~entries_log2:10 ~history_bits:8 in
  (* always-taken branch: after the global history saturates and the
     stable-index counter trains, it predicts perfectly *)
  for _ = 1 to 16 do
    ignore (Machine.Predictor.branch p ~pc:42 ~taken:true)
  done;
  Machine.Predictor.reset_stats p;
  for _ = 1 to 100 do
    ignore (Machine.Predictor.branch p ~pc:42 ~taken:true)
  done;
  checkf "perfect on monotone" 1.0 (Machine.Predictor.accuracy p)

let test_predictor_poor_on_random () =
  let p = Machine.Predictor.create ~entries_log2:10 ~history_bits:8 in
  let rng = Machine.Rng.create 13 in
  for _ = 1 to 2000 do
    ignore (Machine.Predictor.branch p ~pc:7 ~taken:(Machine.Rng.flip rng 0.5))
  done;
  checkb "well below perfect" true (Machine.Predictor.accuracy p < 0.8)

let test_predictor_clear () =
  let p = Machine.Predictor.create ~entries_log2:4 ~history_bits:4 in
  ignore (Machine.Predictor.branch p ~pc:1 ~taken:true);
  Machine.Predictor.clear p;
  checkf "reset accuracy" 1.0 (Machine.Predictor.accuracy p)

(* ---------- model ---------- *)

let mk_model () = Machine.Model.create Machine.Presets.r350

let test_model_retire_width () =
  let m = mk_model () in
  Machine.Model.retire m 8;
  (* 8 ops at width 4 -> 2 cycles *)
  checki "retire cycles" 2 (Machine.Model.cycles m)

let test_model_load_hierarchy () =
  let m = mk_model () in
  Machine.Model.load m 0x10000 8;
  let cold = Machine.Model.cycles m in
  let before = Machine.Model.cycles m in
  Machine.Model.load m 0x10000 8;
  let warm = Machine.Model.cycles m - before in
  checkb "cold costs more than warm" true (cold > warm)

let test_model_store_cheaper_than_miss_load () =
  let m = mk_model () in
  Machine.Model.load m 0x40000 8;
  let load_cost = Machine.Model.cycles m in
  let m2 = mk_model () in
  Machine.Model.store m2 0x40000 8;
  let store_cost = Machine.Model.cycles m2 in
  checkb "store buffered" true (store_cost < load_cost)

(* loads, stores and branches sit under every guard probe: after
   warm-up, 100k of each must not allocate a single minor word *)
let test_model_allocation_free () =
  let m = mk_model () in
  let addr i = 0x10000 + ((i land 1023) * 24) in
  let measure name f =
    for i = 0 to 999 do
      f i
    done;
    let w0 = Gc.minor_words () in
    for i = 0 to 99_999 do
      f i
    done;
    Alcotest.check (Alcotest.float 0.0) name 0.0 (Gc.minor_words () -. w0)
  in
  measure "load minor words" (fun i -> Machine.Model.load m (addr i) 8);
  measure "store minor words" (fun i -> Machine.Model.store m (addr i) 8);
  measure "branch minor words" (fun i ->
      Machine.Model.branch m ~pc:(i land 63) ~taken:(i land 5 = 0))

let test_model_branch_costs () =
  let m = mk_model () in
  (* train past the 16-bit history saturation point *)
  for _ = 1 to 40 do
    Machine.Model.branch m ~pc:5 ~taken:true
  done;
  let c0 = Machine.Model.cycles m in
  Machine.Model.branch m ~pc:5 ~taken:true;
  let predicted = Machine.Model.cycles m - c0 in
  let c1 = Machine.Model.cycles m in
  Machine.Model.branch m ~pc:5 ~taken:false;
  let mispredicted = Machine.Model.cycles m - c1 in
  checkb "mispredict costs more" true (mispredicted > predicted);
  checkb "mispredict at least penalty" true
    (mispredicted >= Machine.Presets.r350.Machine.Model.mispredict_penalty)

let test_model_memcpy_scales () =
  let m = mk_model () in
  Machine.Model.memcpy m ~dst:0x100000 ~src:0x200000 64;
  let small = Machine.Model.cycles m in
  let m2 = mk_model () in
  Machine.Model.memcpy m2 ~dst:0x100000 ~src:0x200000 4096;
  let big = Machine.Model.cycles m2 in
  checkb "larger copies cost more" true (big > 2 * small)

let test_model_mmio () =
  let m = mk_model () in
  Machine.Model.mmio m;
  checki "mmio read" Machine.Presets.r350.Machine.Model.mmio_latency
    (Machine.Model.cycles m);
  let m2 = mk_model () in
  Machine.Model.mmio_write m2;
  checkb "posted write cheaper" true
    (Machine.Model.cycles m2 < Machine.Model.cycles m)

let test_model_overlap () =
  let m = mk_model () in
  Machine.Model.with_overlap m (fun () -> Machine.Model.add_cycles m 100);
  let visible = Machine.Model.cycles m in
  checkb "discounted" true (visible < 100);
  checkb "not free" true (visible > 0)

let test_model_seconds () =
  let m = mk_model () in
  Machine.Model.add_cycles m 2_800_000_000;
  checkb "one second at 2.8GHz" true
    (abs_float (Machine.Model.seconds m -. 1.0) < 1e-6)

let test_model_snapshot_delta () =
  let m = mk_model () in
  let s0 = Machine.Model.snapshot m in
  Machine.Model.load m 0x1000 8;
  Machine.Model.store m 0x2000 8;
  Machine.Model.branch m ~pc:1 ~taken:true;
  let s1 = Machine.Model.snapshot m in
  let d = Machine.Model.delta s0 s1 in
  checki "loads" 1 d.Machine.Model.s_loads;
  checki "stores" 1 d.Machine.Model.s_stores;
  checki "branches" 1 d.Machine.Model.s_branches

(* ---------- presets ---------- *)

let test_presets_lookup () =
  checkb "r415" true (Machine.Presets.by_name "r415" <> None);
  checkb "r350" true (Machine.Presets.by_name "r350" <> None);
  checkb "unknown" true (Machine.Presets.by_name "r9000" = None);
  checki "two machines" 2 (List.length Machine.Presets.all)

let test_presets_relationship () =
  let a = Machine.Presets.r415 and b = Machine.Presets.r350 in
  checkb "r350 wider" true
    (b.Machine.Model.issue_width > a.Machine.Model.issue_width);
  checkb "r350 faster clock" true
    (b.Machine.Model.freq_ghz > a.Machine.Model.freq_ghz);
  checkb "r350 better predictor" true
    (b.Machine.Model.predictor_entries_log2 > a.Machine.Model.predictor_entries_log2);
  checkb "r350 hides more guard work" true
    (b.Machine.Model.speculative_overlap < a.Machine.Model.speculative_overlap)

let test_same_work_cheaper_on_r350 () =
  let work p =
    let m = Machine.Model.create p in
    Machine.Model.retire m 10000;
    for i = 0 to 200 do
      Machine.Model.load m (i * 64) 8;
      Machine.Model.branch m ~pc:(i land 7) ~taken:true
    done;
    Machine.Model.cycles m
  in
  checkb "r350 fewer cycles" true
    (work Machine.Presets.r350 < work Machine.Presets.r415)

let () =
  Alcotest.run "machine"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "flip bias" `Quick test_rng_flip_bias;
          Alcotest.test_case "jitter" `Quick test_rng_jitter;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction_lru;
          Alcotest.test_case "stats and flush" `Quick test_cache_stats_and_flush;
          Alcotest.test_case "lines touched" `Quick test_cache_lines_touched;
          Alcotest.test_case "perturb" `Quick test_cache_perturb;
          Alcotest.test_case "bad geometry" `Quick test_cache_rejects_bad_geometry;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "learns monotone" `Quick test_predictor_learns_monotone;
          Alcotest.test_case "poor on random" `Quick test_predictor_poor_on_random;
          Alcotest.test_case "clear" `Quick test_predictor_clear;
        ] );
      ( "model",
        [
          Alcotest.test_case "retire width" `Quick test_model_retire_width;
          Alcotest.test_case "load hierarchy" `Quick test_model_load_hierarchy;
          Alcotest.test_case "store buffering" `Quick test_model_store_cheaper_than_miss_load;
          Alcotest.test_case "branch costs" `Quick test_model_branch_costs;
          Alcotest.test_case "memcpy scales" `Quick test_model_memcpy_scales;
          Alcotest.test_case "mmio" `Quick test_model_mmio;
          Alcotest.test_case "overlap" `Quick test_model_overlap;
          Alcotest.test_case "seconds" `Quick test_model_seconds;
          Alcotest.test_case "snapshot delta" `Quick test_model_snapshot_delta;
          Alcotest.test_case "allocation-free probes" `Quick
            test_model_allocation_free;
        ] );
      ( "presets",
        [
          Alcotest.test_case "lookup" `Quick test_presets_lookup;
          Alcotest.test_case "relationship" `Quick test_presets_relationship;
          Alcotest.test_case "r350 beats r415" `Quick test_same_work_cheaper_on_r350;
        ] );
    ]
