(* The repository benchmark.

   Four workloads drive the public APIs of zkdet_core, zkdet_contracts,
   zkdet_chain and zkdet_storage from outside the library, one process and
   one client thread each:

   - exchange: the paper's key-secure exchange (Fig. 4) back to back on a
     fresh seeded n=8 dataset — the prover stack does the work;
   - settle: the verify side of Fig. 4 at block scale, from a pool of
     proofs made in set-up — pairing-based verification and contract gas
     do the work;
   - market_zipf: blocks of Scenario.purchase txs with Zipf-skewed
     buyers, sellers and datasets — most speculations conflict, so the
     mempool, the merge/re-execution phase and SHA-256 do the work;
   - market_disjoint: the same load generator with a conflict-free assignment —
     every speculation commits, so parallel speculation and per-tx
     allocation do the work.

   Usage:
     main.exe --workload W --seed N --seconds S --trace 0|1 [--nproc N] [--tiny]

   With --trace 0 the run measures with telemetry off and reports the
   end-to-end metrics; with --trace 1 it runs the workload untraced for
   half the time and traced for the other half, then times the kernel
   probes, and reports the per-layer metrics.  Lines before the last start
   with '#' (host fingerprint, sample counts, probe table); the last line
   is one JSON object {correct, attempted, failed, metrics}.  Every
   operation's output is checked; a failed check counts as a failed
   operation and does not stop the run. *)

module Fr = Zkdet_field.Bn254.Fr
module Fp = Zkdet_field.Bn254.Fp
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Fft_domain = Zkdet_poly.Domain
module Sha256 = Zkdet_hash.Sha256
module Srs = Zkdet_kzg.Srs
module Cs = Zkdet_plonk.Cs
module Telemetry = Zkdet_telemetry.Telemetry
module Report = Telemetry.Report
module Pool = Zkdet_parallel.Pool
module Chain = Zkdet_chain.Chain
module Tx = Zkdet_chain.Tx
module Mempool = Zkdet_chain.Mempool
module Storage = Zkdet_storage.Storage
module Escrow = Zkdet_contracts.Escrow
module Verifier_contract = Zkdet_contracts.Verifier_contract
module Env = Zkdet_core.Env
module Circuits = Zkdet_core.Circuits
module Transform = Zkdet_core.Transform
module Exchange = Zkdet_core.Exchange
module Scenario = Zkdet_core.Scenario

(* ---- metric names and units (BENCHMARK.json lists the same) ---- *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("success_rate", "ratio");
    ("heap_peak_mb", "MB"); ("gas_per_op", "gas") ]

let per_layer =
  [ ("core.seal_ms", "ms"); ("core.prove_validation_s", "s");
    ("core.prove_key_s", "s"); ("core.verify_validation_ms", "ms");
    ("core.recover_ms", "ms"); ("storage.put_ms", "ms");
    ("storage.get_ms", "ms"); ("contracts.lock_ms", "ms");
    ("contracts.settle_ms", "ms"); ("contracts.settle_batch_ms", "ms");
    ("chain.submit_us", "us"); ("chain.produce_block_ms", "ms");
    ("plonk.round1_s", "s"); ("plonk.round2_s", "s"); ("plonk.round3_s", "s");
    ("plonk.round4_s", "s"); ("plonk.round5_s", "s");
    ("kzg.commit_batch_s", "s"); ("kzg.open_batch_s", "s");
    ("kzg.commits_per_op", "count"); ("poly.fft_points_per_op", "count");
    ("curve.msm_points_per_op", "count"); ("plonk.verifies_per_op", "count");
    ("plonk.verify_ms", "ms"); ("plonk.verify_batch_ms", "ms");
    ("chain.speculate_ms", "ms"); ("chain.block_rest_ms", "ms");
    ("chain.reexec_ratio", "ratio"); ("parallel.chunks_per_op", "count");
    ("field.mont_mul_ns", "ns"); ("field.inv_us", "us");
    ("poly.fft_ns_per_point", "ns"); ("curve.msm_ns_per_point", "ns");
    ("curve.pairing_check2_ms", "ms"); ("curve.miller_loop_ms", "ms");
    ("curve.final_exp_ms", "ms"); ("hash.sha256_ns", "ns");
    ("chain.alloc_kb_per_tx", "KB"); ("gc.minor_mb_per_op", "MB");
    ("gc.major_collections_per_op", "count");
    ("telemetry.overhead_ratio", "ratio") ]

(* ---- command line ---- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  tiny : bool;  (* smallest sizes, for the self-check *)
}

let usage =
  "usage: main.exe --workload exchange|settle|market_zipf|market_disjoint \
   --seed N --seconds S --trace 0|1 [--nproc N] [--tiny]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and nproc = ref None and tiny = ref false in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> die "%s: not an integer: %S\n%s" name v usage
  in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> seconds := Some s
      | _ -> die "--seconds: not a non-negative number: %S\n%s" v usage);
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> die "--trace: expected 0 or 1, got %S\n%s" v usage);
      go rest
    | "--nproc" :: v :: rest -> nproc := Some (int_arg "--nproc" v); go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | [] -> ()
    | a :: _ -> die "unknown argument %S\n%s" a usage
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace ->
    {
      workload = !workload;
      seed;
      seconds;
      trace;
      nproc =
        Option.value !nproc ~default:(Stdlib.Domain.recommended_domain_count ());
      tiny = !tiny;
    }
  | _ -> die "%s" usage

(* ---- clock and statistics ---- *)

let now () = float_of_int (Telemetry.monotonic_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile xs q =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Median time of [reps] calls of [f], in seconds. *)
let probe ~reps f = median (List.init reps (fun _ -> snd (time f)))

(* ---- operation outcomes ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Count one operation; a failed check is reported (first few only) and
   counted, never fatal. *)
let record ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 then Printf.eprintf "check failed: %s\n%!" what
  end

(* One measured stretch of a workload: the per-operation latencies and
   gas it produced, its wall time and the GC activity inside it. *)
type sink = {
  mutable samples : (float * float) list;
      (** (completion time, latency) in seconds per operation, newest first *)
  mutable ops : int;
  mutable gas : int;
  mutable chain_alloc_words : float;
      (** words allocated inside chain submit/produce-block calls *)
}

let new_sink () = { samples = []; ops = 0; gas = 0; chain_alloc_words = 0.0 }

let complete sink ~t_end ~latency ~gas =
  sink.samples <- (t_end, latency) :: sink.samples;
  sink.ops <- sink.ops + 1;
  sink.gas <- sink.gas + gas

let latencies sink = List.map snd sink.samples

type phase = {
  sink : sink;
  t_start : float;
  elapsed : float;
  minor_words : float;
  major_collections : int;
}

let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Run [step] back to back (a closed loop) until [seconds] have passed;
   always at least once.  An exception from the libraries fails that
   operation and the loop goes on. *)
let run_phase ~seconds step =
  let sink = new_sink () in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let rec go () =
    (try step sink with e -> record false ("exception: " ^ Printexc.to_string e));
    if now () < deadline then go ()
  in
  go ();
  let elapsed = now () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    sink;
    t_start = t0;
    elapsed;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Consecutive windows of [size] operations, oldest first, as
   (operations per second, latencies); a trailing partial window is
   dropped unless it is the only one. *)
let windows ~size (ph : phase) =
  let rec go acc prev n lats = function
    | [] ->
      if acc = [] && n > 0 then [ (ratio (float_of_int n) (prev -. ph.t_start), lats) ]
      else List.rev acc
    | (t, l) :: rest ->
      let n = n + 1 and lats = l :: lats in
      if n < size then go acc prev n lats rest
      else go ((float_of_int n /. (t -. prev), lats) :: acc) t 0 [] rest
  in
  go [] ph.t_start 0 [] (List.rev ph.sink.samples)

let span name f = Telemetry.with_span name f

(* ---- workloads ---- *)

(* What every workload hands to the common measurement code. *)
type workload = {
  setup_reps : int;  (** repeatable set-up runs; setup_s takes their median *)
  prepare : unit -> unit;  (** one repeatable set-up run *)
  warm : unit -> unit;  (** one-off warm-up after the last [prepare] *)
  step : sink -> unit;  (** one closed-loop iteration *)
  tail_q : float;  (** the percentile latency_tail_ms reports *)
  window : int;
      (** operations per measurement window: ops_per_s and latency_tail_ms
          are medians over windows, so a few seconds of a slow host move
          them less than a whole-run total would *)
  info : unit -> string list;  (** extra '#' lines: counts, pool sizes *)
  predictions : (Report.t -> ops:int -> probes:(string * float) list -> string list);
      (** probe-times-count predictions for the traced run *)
}

let n_data = 8
let price = 1_000
let predicate = Circuits.Trivial

let seeded_data rng =
  Array.init n_data (fun _ -> Fr.of_int (Random.State.bits rng))

(* The universal set-up sized from the validation circuit (the larger of
   the two exchange circuits), both proving keys, and the fixed-base
   tables — everything the first proof would otherwise build lazily. *)
let prove_env ~seed =
  let gates =
    Cs.num_gates (Cs.compile (Circuits.validation_dummy ~n:n_data ~predicate ()))
  in
  let rec log2_ceil l = if 1 lsl l >= gates then l else log2_ceil (l + 1) in
  let env = Env.create ~log2_max_gates:(log2_ceil 0) ~seed:[| seed; 0xe7 |] () in
  ignore (Srs.fixed_base_table env.Env.srs);
  ignore
    (Env.proving_key env
       ~descriptor:(Circuits.validation_descriptor ~n:n_data ~predicate)
       ~build:(Circuits.validation_dummy ~n:n_data ~predicate));
  env

(* Chain with a Fig. 4 arbiter: the pi_k verifier contract (deployed with
   Exchange.key_vk, which preprocesses the key circuit) and the escrow. *)
let deploy_arbiter env ~seller =
  let chain = Chain.create ~gas_price:1 () in
  Chain.faucet chain seller 1_000_000_000_000;
  let verifier, r1 = Verifier_contract.deploy chain ~deployer:seller (Exchange.key_vk env) in
  let escrow, r2 = Escrow.deploy chain ~deployer:seller verifier in
  ignore (Chain.mine chain);
  record (r1.Chain.status = Ok () && r2.Chain.status = Ok ()) "arbiter deployment";
  (chain, escrow)

let settled_with escrow deal_id k_c =
  match Escrow.deal escrow deal_id with
  | Some { Escrow.status = Escrow.Settled; k_c = Some k; _ } -> Fr.equal k k_c
  | _ -> false

let receipt_ok (r : Chain.receipt) = r.Chain.status = Ok ()

let predict_prover (snap : Report.t) ~ops ~probes =
  let per name =
    ratio (float_of_int (Option.value ~default:0 (Report.find_counter snap name)))
      (float_of_int ops)
  in
  let p name = List.assoc name probes in
  let msm = per "curve.msm.points" and fft = per "fft.points" in
  let ver = per "plonk.verifies" in
  [ Printf.sprintf "curve.msm   %10.0f ns/pt x %10.0f pts/op = %8.3f s/op predicted"
      (p "curve.msm_ns_per_point") msm (msm *. p "curve.msm_ns_per_point" *. 1e-9);
    Printf.sprintf "poly.fft    %10.1f ns/pt x %10.0f pts/op = %8.3f s/op predicted"
      (p "poly.fft_ns_per_point") fft (fft *. p "poly.fft_ns_per_point" *. 1e-9);
    Printf.sprintf "pairing     %10.2f ms/check2 x %7.2f verifies/op = %8.3f s/op predicted"
      (p "curve.pairing_check2_ms") ver (ver *. p "curve.pairing_check2_ms" *. 1e-3) ]

(* exchange: seal -> put -> prove pi_p -> verify -> lock -> prove pi_k ->
   settle -> get -> recover, one seller-buyer pair, closed loop. *)
let exchange_workload (a : args) =
  let rng = Random.State.make [| a.seed; 0xec |] in
  let seller = Chain.Address.of_seed (Printf.sprintf "seller/%d" a.seed) in
  let buyer = Chain.Address.of_seed (Printf.sprintf "buyer/%d" a.seed) in
  let st = ref None in
  let prepare () =
    let env = prove_env ~seed:a.seed in
    let chain, escrow = deploy_arbiter env ~seller in
    Chain.faucet chain buyer 1_000_000_000_000;
    let net = Storage.create () in
    let seller_node = Storage.add_node net ~id:"seller" in
    let buyer_node = Storage.add_node net ~id:"buyer" in
    st := Some (env, chain, escrow, net, seller_node, buyer_node)
  in
  let step sink =
    let env, chain, escrow, net, seller_node, buyer_node = Option.get !st in
    let data = seeded_data rng in
    let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
    let t0 = now () in
    let sealed = span "bench.core.seal" (fun () -> Transform.seal ~st:rng data) in
    let offer = Exchange.make_offer sealed ~predicate ~price in
    let cid =
      span "bench.storage.put" (fun () ->
          Storage.put net seller_node (Storage.Codec.encode offer.Exchange.ciphertext))
    in
    let pi_p =
      span "bench.core.prove_validation" (fun () ->
          Exchange.prove_validation env sealed predicate)
    in
    let valid =
      span "bench.core.verify_validation" (fun () ->
          Exchange.verify_validation env offer pi_p)
    in
    let deal_id, lock_r =
      span "bench.contracts.lock" (fun () ->
          Escrow.lock escrow chain ~buyer ~seller ~amount:price ~h_v
            ~key_commitment:offer.Exchange.c_k ~timeout_blocks:100)
    in
    ignore (Chain.mine chain);
    let ok, gas =
      match deal_id with
      | None -> (false, lock_r.Chain.gas_used)
      | Some deal_id ->
        let k_c, pi_k =
          span "bench.core.prove_key" (fun () -> Exchange.prove_key env sealed ~k_v)
        in
        let settle_r =
          span "bench.contracts.settle" (fun () ->
              Escrow.settle escrow chain ~seller ~deal_id ~k_c ~proof:pi_k)
        in
        ignore (Chain.mine chain);
        let fetched = span "bench.storage.get" (fun () -> Storage.get net buyer_node cid) in
        let delivered =
          match Result.map Storage.Codec.decode_result fetched with
          | Ok (Ok ciphertext) ->
            let published_k_c =
              match Escrow.deal escrow deal_id with
              | Some { Escrow.k_c = Some k; _ } -> k
              | _ -> Fr.zero
            in
            let plain =
              span "bench.core.recover" (fun () ->
                  Exchange.recover { offer with Exchange.ciphertext } ~k_c:published_k_c ~k_v)
            in
            Array.length plain = n_data && Array.for_all2 Fr.equal plain data
          | _ -> false
        in
        ( receipt_ok lock_r && receipt_ok settle_r
          && settled_with escrow deal_id k_c && delivered,
          lock_r.Chain.gas_used + settle_r.Chain.gas_used )
    in
    let t1 = now () in
    record (valid && ok) "exchange: pi_p, lock, settle or recovered plaintext";
    complete sink ~t_end:t1 ~latency:(t1 -. t0) ~gas
  in
  {
    setup_reps = (if a.tiny || a.trace then 1 else 2);
    prepare;
    (* The first exchange after preprocessing still grows the heap. *)
    warm = (fun () -> step (new_sink ()));
    step;
    (* Too few exchanges per run for any percentile above the median to
       have ten samples beyond it. *)
    tail_q = 0.5;
    window = 1;
    info = (fun () -> []);
    predictions = predict_prover;
  }

(* One pooled deal: the seller's offer with both proofs, and the buyer's
   blinding key. *)
type pooled = {
  data : Fr.t array;
  offer : Exchange.offer;
  pi_p : Zkdet_plonk.Proof.t;
  k_v : Fr.t;
  h_v : Fr.t;
  k_c : Fr.t;
  pi_k : Zkdet_plonk.Proof.t;
}

(* A buyer's half of a deal: when its verify call started, whether pi_p
   verified and the lock succeeded, and the lock's deal id and gas. *)
type locked = {
  started : float;
  lock_ok : bool;
  deal_id : int option;
  lock_gas : int;
  deal : pooled;
}

let batch_entry l = (Option.value l.deal_id ~default:(-1), l.deal.k_c, l.deal.pi_k)

(* settle: B buyers verify pi_p and lock; the seller settles the block in
   one settle_batch.  Proofs come from a pool made in set-up. *)
let settle_workload (a : args) =
  let block = if a.tiny then 2 else 4 in
  let rng = Random.State.make [| a.seed; 0x5e |] in
  let seller = Chain.Address.of_seed (Printf.sprintf "settle-seller/%d" a.seed) in
  let buyers =
    Array.init block (fun i ->
        Chain.Address.of_seed (Printf.sprintf "settle-buyer/%d/%d" a.seed i))
  in
  let st = ref None in
  let pool = ref [||] in
  let blocks = ref 0 in
  let prepare () =
    let env = prove_env ~seed:a.seed in
    let chain, escrow = deploy_arbiter env ~seller in
    Array.iter (fun b -> Chain.faucet chain b 1_000_000_000_000) buyers;
    st := Some (env, chain, escrow)
  in
  (* Buyer i verifies pool entry i's pi_p and locks payment. *)
  let lock_block () =
    let env, chain, escrow = Option.get !st in
    Array.to_list
      (Array.mapi
         (fun i buyer ->
           let deal = !pool.(i) in
           let started = now () in
           let valid =
             span "bench.core.verify_validation" (fun () ->
                 Exchange.verify_validation env deal.offer deal.pi_p)
           in
           let deal_id, r =
             span "bench.contracts.lock" (fun () ->
                 Escrow.lock escrow chain ~buyer ~seller ~amount:price ~h_v:deal.h_v
                   ~key_commitment:deal.offer.Exchange.c_k ~timeout_blocks:100)
           in
           { started; lock_ok = valid && receipt_ok r; deal_id; lock_gas = r.Chain.gas_used; deal })
         buyers)
  in
  let step sink =
    let _, chain, escrow = Option.get !st in
    let locked = lock_block () in
    let entries =
      List.filter_map (fun l -> Option.map (fun _ -> batch_entry l) l.deal_id) locked
    in
    let r =
      span "bench.contracts.settle_batch" (fun () ->
          Escrow.settle_batch escrow chain ~seller entries)
    in
    ignore (Chain.mine chain);
    let t1 = now () in
    incr blocks;
    List.iter
      (fun l ->
        let { data; offer; k_c; k_v; _ } = l.deal in
        let ok =
          l.lock_ok && receipt_ok r
          && (match l.deal_id with Some id -> settled_with escrow id k_c | None -> false)
          &&
          let plain = span "bench.core.recover" (fun () -> Exchange.recover offer ~k_c ~k_v) in
          Array.for_all2 Fr.equal plain data
        in
        record ok "settle: pi_p, lock, settle_batch, deal status or recovered plaintext";
        complete sink ~t_end:t1 ~latency:(t1 -. l.started)
          ~gas:(l.lock_gas + (r.Chain.gas_used / block)))
      locked
  in
  (* The pool (one block of pi_p/pi_k pairs), then one block whose batch
     carries a tampered pi_k: it must revert with no state change.  The
     same deals are then settled honestly, which also warms the loop. *)
  let warm () =
    let env, chain, escrow = Option.get !st in
    pool :=
      Array.init block (fun _ ->
          let data = seeded_data rng in
          let sealed = Transform.seal ~st:rng data in
          let offer = Exchange.make_offer sealed ~predicate ~price in
          let pi_p = Exchange.prove_validation env sealed predicate in
          let k_v, h_v = Exchange.buyer_blinding ~st:rng () in
          let k_c, pi_k = Exchange.prove_key env sealed ~k_v in
          { data; offer; pi_p; k_v; h_v; k_c; pi_k });
    let locked = lock_block () in
    let ids = List.filter_map (fun l -> l.deal_id) locked in
    let honest = List.map batch_entry locked in
    let tampered =
      List.mapi
        (fun i (id, k_c, (pi_k : Zkdet_plonk.Proof.t)) ->
          if i > 0 then (id, k_c, pi_k)
          else (id, k_c, { pi_k with eval_a = Fr.add pi_k.eval_a Fr.one }))
        honest
    in
    let seller_before = Chain.balance chain seller in
    let escrow_before = Chain.balance chain escrow.Escrow.address in
    let r = Escrow.settle_batch escrow chain ~seller tampered in
    ignore (Chain.mine chain);
    let unchanged =
      List.for_all
        (fun id ->
          match Escrow.deal escrow id with
          | Some { Escrow.status = Escrow.Locked; k_c = None; _ } -> true
          | _ -> false)
        ids
    in
    record
      (List.length ids = block && (not (receipt_ok r)) && r.Chain.events = []
       && unchanged
       && Chain.balance chain seller = seller_before - r.Chain.gas_used
       && Chain.balance chain escrow.Escrow.address = escrow_before)
      "settle: a batch with one tampered pi_k must revert with no state change";
    let r = Escrow.settle_batch escrow chain ~seller honest in
    ignore (Chain.mine chain);
    record (receipt_ok r && List.for_all (fun (id, k_c, _) -> settled_with escrow id k_c) honest)
      "settle: honest batch after the tampered one"
  in
  {
    setup_reps = (if a.tiny || a.trace then 1 else 2);
    prepare;
    warm;
    step;
    tail_q = 0.9;
    (* Five blocks: the p90 of 20 deals, mixing every position in a block. *)
    window = 5 * block;
    info =
      (fun () ->
        [ Printf.sprintf "settle pool=%d block=%d blocks=%d reuse_per_entry=%d"
            (Array.length !pool) block !blocks !blocks ]);
    predictions = predict_prover;
  }

(* Zipf sampler over [0, n): weight of rank i is 1/(i+1)^s. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun wi -> acc := !acc +. (wi /. total); !acc) w

let zipf_sample cdf rng =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* market_*: one block of purchases submitted through the mempool, then
   produce_block; latency runs from submit to seal. *)
let market_workload (a : args) ~zipf =
  let per_block = 32 and n_accounts = 64 and n_datasets = 32 and work = 16 in
  let rng = Random.State.make [| a.seed; (if zipf then 0x21 else 0xd1) |] in
  let accounts =
    Array.init n_accounts (fun i ->
        Chain.Address.of_seed (Printf.sprintf "market/%d/%d" a.seed i))
  in
  let cdf_acct = zipf_cdf ~n:n_accounts ~s:1.0 in
  let cdf_data = zipf_cdf ~n:n_datasets ~s:1.0 in
  let chain = ref None in
  let nonces = Hashtbl.create n_accounts in
  let reexec = ref 0 in
  let epoch = 32 and epoch_blocks = ref 0 in
  (* A fresh funded chain every [epoch] blocks keeps the ledger, and with
     it the heap and the GC's work, the same size however fast the host
     runs. *)
  let new_chain () =
    Option.iter (fun c -> reexec := !reexec + Chain.reexec_total c) !chain;
    let c = Chain.create ~gas_price:1 () in
    Array.iter (fun acct -> Chain.faucet c acct 1_000_000_000_000) accounts;
    Hashtbl.reset nonces;
    epoch_blocks := 0;
    chain := Some c
  in
  (* (buyer, seller, dataset) triples for one block. *)
  let draw_block () =
    if zipf then
      List.init per_block (fun _ ->
          let b = zipf_sample cdf_acct rng in
          let s = zipf_sample cdf_acct rng in
          let s = if s = b then (s + 1) mod n_accounts else s in
          (accounts.(b), accounts.(s), zipf_sample cdf_data rng))
    else begin
      (* Distinct buyers, sellers and datasets inside the block: no two
         transactions share a key, so every speculation commits. *)
      let perm = Array.copy accounts in
      shuffle rng perm;
      let ds = Array.init n_datasets Fun.id in
      shuffle rng ds;
      List.init per_block (fun i -> (perm.(i), perm.(per_block + i), ds.(i)))
    end
  in
  let step sink =
    if !epoch_blocks = epoch then new_chain ();
    incr epoch_blocks;
    let c = Option.get !chain in
    let txs =
      List.map
        (fun (buyer, seller, dataset) ->
          let nonce = Option.value ~default:0 (Hashtbl.find_opt nonces buyer) in
          Hashtbl.replace nonces buyer (nonce + 1);
          Tx.make ~sender:buyer ~nonce ~label:"market:purchase"
            ~calldata:(string_of_int dataset) ~contract:"market"
            (Scenario.purchase ~buyer ~seller ~dataset ~price ~work))
        (draw_block ())
    in
    let hashes = List.map Tx.hash txs in
    let submitted = Hashtbl.create per_block in
    let g0 = Gc.quick_stat () in
    List.iter2
      (fun tx h ->
        let t = now () in
        match span "bench.chain.submit" (fun () -> Chain.submit c tx) with
        | Mempool.Admitted -> Hashtbl.replace submitted h t
        | other ->
          record false ("market: submit " ^ Mempool.admit_to_string other))
      txs hashes;
    let blk =
      span "bench.chain.produce_block" (fun () -> Chain.produce_block ~max_txs:per_block c)
    in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    sink.chain_alloc_words <- sink.chain_alloc_words +. alloc_words g1 -. alloc_words g0;
    List.iter
      (fun h ->
        match Hashtbl.find_opt submitted h with
        | None -> ()
        | Some t0 ->
          Hashtbl.remove submitted h;
          let r = Chain.receipt c h in
          let ok = match r with Some r -> receipt_ok r | None -> false in
          record ok "market: sealed purchase without an Ok receipt";
          complete sink ~t_end:t1 ~latency:(t1 -. t0)
            ~gas:(match r with Some r -> r.Chain.gas_used | None -> 0))
      blk.Chain.tx_hashes;
    (* Whatever was admitted but not sealed, or left in the mempool, failed. *)
    Hashtbl.iter (fun _ _ -> record false "market: admitted purchase not sealed") submitted;
    if Chain.mempool_size c <> 0 then
      record false
        (Printf.sprintf "market: mempool holds %d txs after the block" (Chain.mempool_size c))
  in
  (* A set-up run: a fresh chain warmed by two epochs of blocks. *)
  let prepare () =
    new_chain ();
    let s = new_sink () in
    for _ = 1 to (if a.tiny then 1 else 2 * epoch) do step s done;
    new_chain ();
    reexec := 0
  in
  {
    setup_reps = (if a.tiny then 1 else 3);
    prepare;
    warm = ignore;
    step;
    (* All txs of a block share its seal time, so a window's p99 is its
       single slowest block and swings with every host hiccup; p90 still
       leaves over a hundred txs (three blocks) beyond it per window. *)
    tail_q = 0.9;
    window = epoch * per_block;
    info =
      (fun () ->
        [ Printf.sprintf "market reexecuted=%d"
            (!reexec + Option.fold ~none:0 ~some:Chain.reexec_total !chain) ]);
    predictions =
      (fun _ ~ops:_ ~probes ->
        let sha = List.assoc "hash.sha256_ns" probes in
        [ Printf.sprintf "hash.sha256 %10.0f ns x %d hashes/tx = %8.1f us/tx predicted"
            sha work (float_of_int work *. sha *. 1e-3) ]);
  }

(* ---- kernel probes ---- *)

(* Each kernel's public function at the size the workloads issue: the
   exchange circuits' 2^13 domain for FFT and MSM, a 2-pair check for the
   pairing (one Plonk verify), 64-byte inputs for SHA-256 (the purchase
   hash chain). *)
let kernel_probes ~tiny =
  let st = Random.State.make [| 0x9b0b |] in
  let reps = if tiny then 1 else 5 in
  let log2n = if tiny then 10 else 13 in
  let n = 1 lsl log2n in
  let field_mul =
    let m = 1024 and iters = if tiny then 10_000 else 200_000 in
    let xs = Fr.buf_of_array (Array.init m (fun _ -> Fr.random st)) in
    let d = Fr.buf_create 1 in
    Fr.buf_set d 0 (Fr.random st);
    1e9
    *. probe ~reps (fun () ->
           for i = 0 to iters - 1 do
             Fr.buf_mul d 0 d 0 xs (i land (m - 1))
           done)
    /. float_of_int iters
  in
  let field_inv =
    let xs = Array.init 64 (fun _ -> Fp.random st) and iters = if tiny then 16 else 256 in
    1e6
    *. probe ~reps (fun () ->
           for i = 0 to iters - 1 do
             ignore (Fp.inv xs.(i land 63))
           done)
    /. float_of_int iters
  in
  let fft =
    let d = Fft_domain.create log2n in
    let coeffs = Array.init n (fun _ -> Fr.random st) in
    1e9 *. probe ~reps (fun () -> ignore (Fft_domain.fft d coeffs)) /. float_of_int n
  in
  let msm =
    let points = Array.make n G1.zero in
    let acc = ref (G1.random st) in
    for i = 0 to n - 1 do
      points.(i) <- !acc;
      acc := G1.add !acc G1.generator
    done;
    let scalars = Array.init n (fun _ -> Fr.random st) in
    1e9 *. probe ~reps:(min reps 3) (fun () -> ignore (G1.msm points scalars))
    /. float_of_int n
  in
  let p = G1.random st and q = G2.random st in
  let pairs = [ (p, q); (G1.neg p, q) ] in
  let check2 =
    1e3 *. probe ~reps (fun () -> assert (Pairing.pairing_check pairs))
  in
  let miller = 1e3 *. probe ~reps (fun () -> ignore (Pairing.miller_loop p q)) in
  let f = Pairing.miller_loop p q in
  let final_exp =
    1e3 *. probe ~reps (fun () -> ignore (Pairing.final_exponentiation f))
  in
  let sha =
    let input = String.make 64 'a' and iters = if tiny then 1_000 else 20_000 in
    1e9
    *. probe ~reps (fun () ->
           for _ = 1 to iters do
             ignore (Sha256.digest_hex input)
           done)
    /. float_of_int iters
  in
  [ ("field.mont_mul_ns", field_mul); ("field.inv_us", field_inv);
    ("poly.fft_ns_per_point", fft); ("curve.msm_ns_per_point", msm);
    ("curve.pairing_check2_ms", check2); ("curve.miller_loop_ms", miller);
    ("curve.final_exp_ms", final_exp); ("hash.sha256_ns", sha) ]

(* ---- per-layer metrics from the traced phase ---- *)

(* (calls, total ns, self ns) summed over every span node named [name],
   wherever it sits in the tree (worker domains record their own roots);
   with [under], only nodes below a span of that name. *)
let span_stats ?under (snap : Report.t) name =
  let rec walk inside acc (s : Report.span) =
    let inside = inside || Some s.Report.span_name = under in
    let acc = List.fold_left (walk inside) acc s.Report.children in
    if s.Report.span_name <> name || not (inside || under = None) then acc
    else
      let calls, total, self = acc in
      let children =
        List.fold_left (fun n (c : Report.span) -> n + c.Report.total_ns) 0 s.Report.children
      in
      (calls + s.Report.calls, total + s.Report.total_ns, self + s.Report.total_ns - children)
  in
  List.fold_left (walk false) (0, 0, 0) snap.Report.spans

let layer_metrics (snap : Report.t) ~(traced : phase) ~(untraced : phase) ~probes =
  let ops = float_of_int (max 1 traced.sink.ops) in
  let counter name = float_of_int (Option.value ~default:0 (Report.find_counter snap name)) in
  (* time per call of a span, in units of [scale] seconds *)
  let per_call name scale =
    let calls, total, _ = span_stats snap name in
    ratio (float_of_int total *. 1e-9 /. scale) (float_of_int calls)
  in
  let total_per_op name = let _, t, _ = span_stats snap name in float_of_int t *. 1e-9 /. ops in
  let self_per_op name = let _, _, s = span_stats snap name in float_of_int s *. 1e-9 /. ops in
  let opening_commits =
    let _, t, _ = span_stats ~under:"round5.openings" snap "kzg.commit_batch" in
    float_of_int t *. 1e-9 /. ops
  in
  let block_rest =
    let calls, _, self = span_stats snap "chain.produce_block" in
    ratio (float_of_int self *. 1e-6) (float_of_int calls)
  in
  let uops = float_of_int (max 1 untraced.sink.ops) in
  let bytes_per_word = float_of_int (Sys.word_size / 8) in
  [ ("core.seal_ms", per_call "bench.core.seal" 1e-3);
    ("core.prove_validation_s", per_call "bench.core.prove_validation" 1.0);
    ("core.prove_key_s", per_call "bench.core.prove_key" 1.0);
    ("core.verify_validation_ms", per_call "bench.core.verify_validation" 1e-3);
    ("core.recover_ms", per_call "bench.core.recover" 1e-3);
    ("storage.put_ms", per_call "bench.storage.put" 1e-3);
    ("storage.get_ms", per_call "bench.storage.get" 1e-3);
    ("contracts.lock_ms", per_call "bench.contracts.lock" 1e-3);
    ("contracts.settle_ms", per_call "bench.contracts.settle" 1e-3);
    ("contracts.settle_batch_ms", per_call "bench.contracts.settle_batch" 1e-3);
    ("chain.submit_us", per_call "bench.chain.submit" 1e-6);
    ("chain.produce_block_ms", per_call "bench.chain.produce_block" 1e-3);
    ("plonk.round1_s", self_per_op "round1.wires");
    ("plonk.round2_s", self_per_op "round2.permutation");
    ("plonk.round3_s", self_per_op "round3.quotient");
    ("plonk.round4_s", self_per_op "round4.evaluations");
    ("plonk.round5_s", self_per_op "round5.openings");
    (* The prover's round 5 commits to its opening witnesses through
       commit_batch: that share is opening time, the rest commitment. *)
    ("kzg.commit_batch_s", total_per_op "kzg.commit_batch" -. opening_commits);
    ("kzg.open_batch_s",
     opening_commits +. total_per_op "kzg.open_batch" +. total_per_op "kzg.open");
    ("kzg.commits_per_op", counter "kzg.commits" /. ops);
    ("poly.fft_points_per_op", counter "fft.points" /. ops);
    ("curve.msm_points_per_op", counter "curve.msm.points" /. ops);
    ("plonk.verifies_per_op", counter "plonk.verifies" /. ops);
    ("plonk.verify_ms", per_call "plonk.verify" 1e-3);
    ("plonk.verify_batch_ms", per_call "plonk.verify_batch" 1e-3);
    ("chain.speculate_ms", per_call "chain.block.speculate" 1e-3);
    ("chain.block_rest_ms", block_rest);
    ("chain.reexec_ratio", ratio (counter "chain.block.reexecuted") (counter "chain.block.txs"));
    ("parallel.chunks_per_op", counter "pool.chunks" /. ops) ]
  @ probes
  @ [ ("chain.alloc_kb_per_tx",
       untraced.sink.chain_alloc_words *. bytes_per_word /. 1024.0 /. uops);
      ("gc.minor_mb_per_op", untraced.minor_words *. bytes_per_word /. 1048576.0 /. uops);
      ("gc.major_collections_per_op", float_of_int untraced.major_collections /. uops);
      ("telemetry.overhead_ratio",
       ratio (traced.elapsed /. ops) (untraced.elapsed /. uops)) ]

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let correct () = tally.failed = 0 && tally.attempted > 0

let print_result metrics units =
  let body =
    List.map
      (fun (name, unit) ->
        let v = match List.assoc_opt name metrics with Some v -> v | None -> 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      units
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct ()) tally.attempted tally.failed (String.concat ", " body)

(* Bn254 names its backend but not the kernel inside it; this mirrors the
   choice Fp64 makes (C stub unless forced to OCaml or on big-endian). *)
let field_kernel () =
  let forced_ocaml =
    match Sys.getenv_opt "ZKDET_FIELD_KERNEL" with Some ("ocaml" | "ml") -> true | _ -> false
  in
  if Zkdet_field.Bn254.backend_name = "unboxed64" && (not forced_ocaml) && not Sys.big_endian
  then "c"
  else "ocaml"

let () =
  let a = parse_args () in
  Telemetry.set_enabled false;
  let recommended = Stdlib.Domain.recommended_domain_count () in
  let domains = Pool.num_domains () in
  Printf.printf
    "# host nproc=%d recommended_domain_count=%d ocaml=%s pool_domains=%d \
     bn254_backend=%s field_kernel=%s\n%!"
    a.nproc recommended Sys.ocaml_version domains Zkdet_field.Bn254.backend_name
    (field_kernel ());
  if domains > a.nproc || domains > recommended then
    die "refusing to run: %d domains on %d cores (set ZKDET_DOMAINS <= %d)" domains
      (min a.nproc recommended) (min a.nproc recommended);
  let w =
    match a.workload with
    | "exchange" -> exchange_workload a
    | "settle" -> settle_workload a
    | "market_zipf" -> market_workload a ~zipf:true
    | "market_disjoint" -> market_workload a ~zipf:false
    | other -> die "unknown workload %S\n%s" other usage
  in
  let prep_times = List.init w.setup_reps (fun _ -> snd (time w.prepare)) in
  let (), warm_s = time w.warm in
  let setup_s = median prep_times +. warm_s in
  Printf.printf "# setup reps=%d prepare_s=[%s] warm_s=%.3f\n%!" w.setup_reps
    (String.concat "; " (List.map (Printf.sprintf "%.3f") prep_times))
    warm_s;
  if not a.trace then begin
    let ph = run_phase ~seconds:a.seconds w.step in
    List.iter (fun l -> Printf.printf "# %s\n" l) (w.info ());
    let wins = windows ~size:w.window ph in
    Printf.printf "# samples=%d windows=%d elapsed_s=%.3f%s\n" ph.sink.ops (List.length wins)
      ph.elapsed
      (if ph.sink.ops > 32 then ""
       else
         " latencies_s=["
         ^ String.concat "; " (List.rev_map (Printf.sprintf "%.3f") (latencies ph.sink))
         ^ "]");
    let ops = float_of_int (max 1 ph.sink.ops) in
    let metrics =
      [ ("setup_s", setup_s);
        ("ops_per_s", median (List.map fst wins));
        ("latency_p50_ms", 1e3 *. median (latencies ph.sink));
        ("latency_tail_ms",
         1e3 *. median (List.map (fun (_, l) -> percentile l w.tail_q) wins));
        ("success_rate", 1.0 -. ratio (float_of_int tally.failed) (float_of_int tally.attempted));
        ("heap_peak_mb",
         float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
         /. 1048576.0);
        ("gas_per_op", float_of_int ph.sink.gas /. ops) ]
    in
    print_result metrics end_to_end
  end
  else begin
    let untraced = run_phase ~seconds:(a.seconds /. 2.0) w.step in
    Telemetry.reset ();
    Telemetry.set_enabled true;
    let traced = run_phase ~seconds:(a.seconds /. 2.0) w.step in
    Telemetry.set_enabled false;
    let snap = Telemetry.snapshot () in
    let probes = kernel_probes ~tiny:a.tiny in
    List.iter (fun l -> Printf.printf "# %s\n" l) (w.info ());
    Printf.printf "# samples untraced=%d traced=%d\n" untraced.sink.ops traced.sink.ops;
    Printf.printf "# kernel probes next to traced counts (op = %.3f s traced)\n"
      (traced.elapsed /. float_of_int (max 1 traced.sink.ops));
    List.iter (fun l -> Printf.printf "#   %s\n" l)
      (w.predictions snap ~ops:(max 1 traced.sink.ops) ~probes);
    let metrics = layer_metrics snap ~traced ~untraced ~probes in
    print_result metrics per_layer
  end;
  Pool.shutdown ();
  (* The result is printed either way; a failed check also fails the run. *)
  if not (correct ()) then exit 1
