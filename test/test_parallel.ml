(* Determinism and robustness tests for the zkdet_parallel fork-join
   runtime: every prover kernel must produce byte-identical results with
   ZKDET_DOMAINS=1 and 4, and the pool must survive edge cases (empty
   ranges, tiny inputs, exceptions thrown mid-batch). *)

module Pool = Zkdet_parallel.Pool
module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Domain = Zkdet_poly.Domain
module Poly = Zkdet_poly.Poly
module Srs = Zkdet_kzg.Srs
module Kzg = Zkdet_kzg.Kzg
module Cs = Zkdet_plonk.Cs
module Preprocess = Zkdet_plonk.Preprocess
module Prover = Zkdet_plonk.Prover
module Verifier = Zkdet_plonk.Verifier
module Proof = Zkdet_plonk.Proof

let srs = Srs.unsafe_generate ~st:(Test_util.rng ~salt:"parallel-srs" ()) ~size:300 ()

(* Run the same computation under 1 and 4 total domains. *)
let both f = (Pool.with_domains 1 f, Pool.with_domains 4 f)

let fr_array_bytes a =
  String.concat "" (Array.to_list (Array.map Fr.to_bytes_be a))

(* ---- pool unit tests ---- *)

let test_parallel_for_basic () =
  Pool.with_domains 4 (fun () ->
      let n = 1000 in
      let out = Array.make n 0 in
      Pool.parallel_for 0 n (fun i -> out.(i) <- i * i);
      Alcotest.(check bool) "all indices written" true
        (Array.for_all2 ( = ) out (Array.init n (fun i -> i * i)));
      (* empty and reversed ranges are no-ops *)
      Pool.parallel_for 5 5 (fun _ -> Alcotest.fail "empty range ran");
      Pool.parallel_for 7 3 (fun _ -> Alcotest.fail "reversed range ran");
      (* n smaller than the chunk count *)
      let tiny = Array.make 3 0 in
      Pool.parallel_for ~chunks:32 0 3 (fun i -> tiny.(i) <- i + 1);
      Alcotest.(check bool) "n < chunks" true (tiny = [| 1; 2; 3 |]))

let test_map_and_init_edge_cases () =
  Pool.with_domains 4 (fun () ->
      Alcotest.(check int) "map on empty" 0
        (Array.length (Pool.parallel_map_array (fun x -> x + 1) [||]));
      Alcotest.(check int) "init 0" 0 (Array.length (Pool.parallel_init 0 (fun i -> i)));
      Alcotest.(check bool) "map singleton" true
        (Pool.parallel_map_array (fun x -> 2 * x) [| 21 |] = [| 42 |]);
      Alcotest.(check bool) "init matches Array.init" true
        (Pool.parallel_init 100 (fun i -> 3 * i) = Array.init 100 (fun i -> 3 * i)))

let test_parallel_reduce () =
  let sum lo hi =
    Pool.parallel_reduce ~neutral:0 ~combine:( + ) lo hi (fun i -> i)
  in
  let seq, par = both (fun () -> sum 0 1000) in
  Alcotest.(check int) "sum formula" (999 * 1000 / 2) seq;
  Alcotest.(check int) "1 vs 4 domains" seq par;
  Pool.with_domains 4 (fun () ->
      Alcotest.(check int) "empty reduce" 0 (sum 3 3);
      Alcotest.(check int) "singleton reduce" 7 (sum 7 8);
      Alcotest.(check int) "chunks=1" (999 * 1000 / 2)
        (Pool.parallel_reduce ~chunks:1 ~neutral:0 ~combine:( + ) 0 1000 (fun i -> i)))

let test_exception_and_reuse () =
  Pool.with_domains 4 (fun () ->
      (* An exception from any task must reach the caller... *)
      Alcotest.check_raises "task exception propagates" (Failure "boom")
        (fun () -> Pool.parallel_for 0 100 (fun i -> if i = 99 then failwith "boom"));
      Alcotest.check_raises "caller-chunk exception propagates" (Failure "early")
        (fun () -> Pool.parallel_for 0 100 (fun i -> if i = 0 then failwith "early"));
      (* ...and the pool must stay usable afterwards. *)
      let out = Array.make 64 0 in
      Pool.parallel_for 0 64 (fun i -> out.(i) <- i);
      Alcotest.(check bool) "pool reusable after exception" true
        (out = Array.init 64 (fun i -> i));
      Alcotest.(check int) "reduce after exception" 2016
        (Pool.parallel_reduce ~neutral:0 ~combine:( + ) 0 64 (fun i -> i)))

(* Every index of a batch is dispatched together: neither construct may
   compute an element on the caller ahead of the rest.  The two elements
   of this map each wait (up to 2 s) for the other to start, which only
   succeeds when both run at once. *)
let test_no_serial_head () =
  Pool.with_domains 2 (fun () ->
      let started = [| Atomic.make false; Atomic.make false |] in
      let meet i =
        Atomic.set started.(i) true;
        let deadline = Unix.gettimeofday () +. 2.0 in
        while
          (not (Atomic.get started.(1 - i))) && Unix.gettimeofday () < deadline
        do
          Stdlib.Domain.cpu_relax ()
        done;
        Atomic.get started.(1 - i)
      in
      Alcotest.(check (array bool)) "both elements ran at once" [| true; true |]
        (Pool.parallel_map_array meet [| 0; 1 |]))

let test_init_once_per_index () =
  List.iter
    (fun domains ->
      Pool.with_domains domains (fun () ->
          List.iter
            (fun n ->
              let calls = Array.init n (fun _ -> Atomic.make 0) in
              let out =
                Pool.parallel_init n (fun i ->
                    Atomic.incr calls.(i);
                    i * i)
              in
              Alcotest.(check (array int))
                (Printf.sprintf "init %d at %d domains" n domains)
                (Array.init n (fun i -> i * i))
                out;
              Array.iteri
                (fun i c ->
                  Alcotest.(check int)
                    (Printf.sprintf "index %d of %d evaluated once" i n)
                    1 (Atomic.get c))
                calls)
            [ 1; 2; 3; 31; 32; 33; 100 ]))
    [ 1; 2; 4 ]

let test_index0_exception () =
  List.iter
    (fun domains ->
      Pool.with_domains domains (fun () ->
          Alcotest.check_raises "init: index 0 raises" (Failure "zero")
            (fun () ->
              ignore
                (Pool.parallel_init 10 (fun i ->
                     if i = 0 then failwith "zero" else i)));
          Alcotest.check_raises "map: element 0 raises" (Failure "zero")
            (fun () ->
              ignore
                (Pool.parallel_map_array
                   (fun i -> if i = 0 then failwith "zero" else i)
                   [| 0; 1 |]))))
    [ 1; 2 ]

let test_results_across_domains () =
  let run () =
    ( Pool.parallel_init 1000 (fun i -> (i * 7919) mod 1009),
      Pool.parallel_map_array (fun x -> float_of_int x /. 3.) (Array.init 77 Fun.id),
      Pool.parallel_map_array (fun s -> s ^ "!") [| "a"; "b" |] )
  in
  let r1 = Pool.with_domains 1 run in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "1 vs %d domains" d)
        true
        (Pool.with_domains d run = r1))
    [ 2; 4 ]

let test_config () =
  Alcotest.check_raises "0 domains rejected"
    (Invalid_argument "Pool.set_num_domains: need at least 1 domain") (fun () ->
      Pool.set_num_domains 0);
  let before = Pool.num_domains () in
  let inside = Pool.with_domains 3 (fun () -> Pool.num_domains ()) in
  Alcotest.(check int) "with_domains applies" 3 inside;
  Alcotest.(check int) "with_domains restores" before (Pool.num_domains ());
  (* restore also on exception *)
  (try Pool.with_domains 2 (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "restored after exception" before (Pool.num_domains ())

(* ---- kernel determinism (1 vs 4 domains, byte-identical) ---- *)

let toy_circuit ~x ~y =
  let cs = Cs.create () in
  let expected = Fr.add (Fr.add (Fr.mul x y) x) (Fr.of_int 3) in
  let pub = Cs.public_input cs expected in
  let xw = Cs.fresh cs x in
  let yw = Cs.fresh cs y in
  let xy = Cs.mul cs xw yw in
  let sum = Cs.add cs xy xw in
  let out = Cs.add_const cs sum (Fr.of_int 3) in
  Cs.assert_equal cs out pub;
  cs

let prop_msm_deterministic =
  QCheck.Test.make ~name:"msm byte-identical at 1 vs 4 domains" ~count:5
    QCheck.small_int (fun seed ->
      let st = Random.State.make [| seed; 0x15a |] in
      let points = Array.init 32 (fun _ -> G1.random st) in
      let scalars = Array.init 32 (fun _ -> Fr.random st) in
      let s1, s4 = both (fun () -> G1.to_bytes (G1.msm points scalars)) in
      String.equal s1 s4)

let prop_fft_deterministic =
  QCheck.Test.make ~name:"fft/ifft byte-identical at 1 vs 4 domains" ~count:5
    QCheck.small_int (fun seed ->
      let st = Random.State.make [| seed; 0xff7 |] in
      let d = Domain.create 10 in
      let coeffs = Array.init 1024 (fun _ -> Fr.random st) in
      let evals1, evals4 = both (fun () -> Domain.fft d coeffs) in
      let back1, back4 = both (fun () -> Domain.ifft d evals1) in
      String.equal (fr_array_bytes evals1) (fr_array_bytes evals4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes back4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes coeffs))

let prop_coset_deterministic =
  QCheck.Test.make ~name:"coset evals byte-identical at 1 vs 4 domains" ~count:5
    QCheck.small_int (fun seed ->
      let st = Random.State.make [| seed; 0xc05 |] in
      let d = Domain.create 10 in
      let coeffs = Array.init 1024 (fun _ -> Fr.random st) in
      let evals1, evals4 = both (fun () -> Domain.coset_fft d coeffs) in
      let back1, back4 = both (fun () -> Domain.coset_ifft d evals1) in
      String.equal (fr_array_bytes evals1) (fr_array_bytes evals4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes back4)
      && String.equal (fr_array_bytes back1) (fr_array_bytes coeffs))

let prop_commit_batch_consistent =
  QCheck.Test.make ~name:"commit_batch = sequential commits" ~count:3
    QCheck.small_int (fun seed ->
      let st = Random.State.make [| seed; 0x6b |] in
      let ps = Array.init 4 (fun _ -> Poly.random st 200) in
      let batched =
        Pool.with_domains 4 (fun () -> Kzg.commit_batch srs ps)
      in
      let single =
        Pool.with_domains 1 (fun () -> Array.map (Kzg.commit srs) ps)
      in
      Array.for_all2
        (fun a b -> String.equal (G1.to_bytes a) (G1.to_bytes b))
        batched single)

let prop_pairing_check_deterministic =
  QCheck.Test.make ~name:"pairing_check stable at 1 vs 4 domains" ~count:3
    QCheck.small_int (fun seed ->
      let st = Random.State.make [| seed; 0xbeef |] in
      let a = Fr.random st in
      (* e(aP, Q) * e(-P, aQ) = 1: a valid multi-pairing batch. *)
      let valid =
        [ (G1.mul G1.generator a, G2.generator);
          (G1.neg G1.generator, G2.mul G2.generator a) ]
      in
      let broken =
        [ (G1.mul G1.generator a, G2.generator);
          (G1.generator, G2.mul G2.generator a) ]
      in
      let v1, v4 = both (fun () -> Pairing.pairing_check valid) in
      let b1, b4 = both (fun () -> Pairing.pairing_check broken) in
      v1 && v4 && (not b1) && not b4)

let prop_prove_transcript_deterministic =
  QCheck.Test.make ~name:"Prover.prove byte-identical at 1 vs 4 domains"
    ~count:3
    QCheck.(pair small_int small_int)
    (fun (x, y) ->
      let cs = toy_circuit ~x:(Fr.of_int x) ~y:(Fr.of_int y) in
      let compiled = Cs.compile cs in
      let pk = Preprocess.setup srs compiled in
      let prove () =
        (* identical blinding randomness on both runs *)
        let st = Random.State.make [| x; y; 0x9e |] in
        Proof.to_bytes (Prover.prove ~st pk compiled)
      in
      let p1, p4 = both prove in
      String.equal p1 p4
      && Verifier.verify pk.Preprocess.vk compiled.Cs.public_values
           (Proof.of_bytes p1))

let () =
  Alcotest.run "zkdet_parallel"
    [ ( "pool",
        [ Alcotest.test_case "parallel_for basics" `Quick test_parallel_for_basic;
          Alcotest.test_case "map/init edge cases" `Quick test_map_and_init_edge_cases;
          Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
          Alcotest.test_case "exceptions and reuse" `Quick test_exception_and_reuse;
          Alcotest.test_case "no serial head" `Quick test_no_serial_head;
          Alcotest.test_case "init evaluates each index once" `Quick
            test_init_once_per_index;
          Alcotest.test_case "index-0 exception propagates" `Quick
            test_index0_exception;
          Alcotest.test_case "results identical at 1/2/4 domains" `Quick
            test_results_across_domains;
          Alcotest.test_case "configuration" `Quick test_config ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest
          [ prop_msm_deterministic;
            prop_fft_deterministic;
            prop_coset_deterministic;
            prop_commit_batch_consistent;
            prop_pairing_check_deterministic;
            prop_prove_transcript_deterministic ] ) ]
