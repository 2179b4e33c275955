module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr
module Fp2 = Zkdet_curve.Fp2
module Fp6 = Zkdet_curve.Fp6
module Fp12 = Zkdet_curve.Fp12
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing

let rng = Test_util.rng ~salt:"curve" ()

let g1 = Alcotest.testable G1.pp G1.equal
let g2 = Alcotest.testable G2.pp G2.equal
let gt = Alcotest.testable Pairing.Gt.pp Pairing.Gt.equal

let test_fp2_field () =
  for _ = 1 to 10 do
    let a = Fp2.random rng and b = Fp2.random rng and c = Fp2.random rng in
    assert (Fp2.equal (Fp2.mul a (Fp2.mul b c)) (Fp2.mul (Fp2.mul a b) c));
    assert (Fp2.equal (Fp2.mul a (Fp2.add b c)) (Fp2.add (Fp2.mul a b) (Fp2.mul a c)));
    assert (Fp2.equal (Fp2.sqr a) (Fp2.mul a a));
    if not (Fp2.is_zero a) then assert (Fp2.is_one (Fp2.mul a (Fp2.inv a)))
  done;
  (* u^2 = -1 *)
  let u = Fp2.make Fp.zero Fp.one in
  assert (Fp2.equal (Fp2.sqr u) (Fp2.neg Fp2.one));
  (* mul_by_xi agrees with mul by (9 + u) *)
  let a = Fp2.random rng in
  assert (Fp2.equal (Fp2.mul_by_xi a) (Fp2.mul Fp2.xi a))

let test_fp6_field () =
  for _ = 1 to 5 do
    let a = Fp6.random rng and b = Fp6.random rng and c = Fp6.random rng in
    assert (Fp6.equal (Fp6.mul a (Fp6.mul b c)) (Fp6.mul (Fp6.mul a b) c));
    assert (Fp6.equal (Fp6.mul a (Fp6.add b c)) (Fp6.add (Fp6.mul a b) (Fp6.mul a c)));
    if not (Fp6.is_zero a) then assert (Fp6.is_one (Fp6.mul a (Fp6.inv a)))
  done;
  (* v^3 = xi *)
  let v = Fp6.make Fp2.zero Fp2.one Fp2.zero in
  assert (Fp6.equal (Fp6.mul v (Fp6.mul v v)) (Fp6.of_fp2 Fp2.xi));
  (* mul_by_v agrees with mul by v *)
  let a = Fp6.random rng in
  assert (Fp6.equal (Fp6.mul_by_v a) (Fp6.mul v a))

let test_fp12_field () =
  for _ = 1 to 3 do
    let a = Fp12.random rng and b = Fp12.random rng and c = Fp12.random rng in
    assert (Fp12.equal (Fp12.mul a (Fp12.mul b c)) (Fp12.mul (Fp12.mul a b) c));
    if not (Fp12.is_zero a) then assert (Fp12.is_one (Fp12.mul a (Fp12.inv a)))
  done;
  (* w^2 = v *)
  let w = Fp12.make Fp6.zero Fp6.one in
  let v = Fp12.of_fp6 (Fp6.make Fp2.zero Fp2.one Fp2.zero) in
  assert (Fp12.equal (Fp12.sqr w) v)

let test_frobenius () =
  (* frobenius must agree with x -> x^p *)
  let p = Fp.modulus in
  let a = Fp2.random rng in
  assert (Fp2.equal (Fp2.frobenius a) (Fp2.pow_nat a p));
  let b = Fp12.random rng in
  Alcotest.check (Alcotest.testable Fp12.pp Fp12.equal) "fp12 frobenius"
    (Fp12.pow_nat b p) (Fp12.frobenius b);
  (* conj = p^6 frobenius *)
  let rec frob_n x n = if n = 0 then x else frob_n (Fp12.frobenius x) (n - 1) in
  assert (Fp12.equal (Fp12.conj b) (frob_n b 6))

let test_g1_group () =
  let g = G1.generator in
  Alcotest.(check bool) "gen on curve" true (not (G1.is_zero g));
  Alcotest.check g1 "g+g = 2g" (G1.add g g) (G1.double g);
  Alcotest.check g1 "3g" (G1.add (G1.double g) g) (G1.mul_int g 3);
  Alcotest.check g1 "g - g = O" G1.zero (G1.sub_point g g);
  (* order r *)
  Alcotest.check g1 "r*g = O" G1.zero (G1.mul_nat g Fr.modulus);
  (* commutativity / associativity on random points *)
  let a = G1.random rng and b = G1.random rng and c = G1.random rng in
  Alcotest.check g1 "comm" (G1.add a b) (G1.add b a);
  Alcotest.check g1 "assoc" (G1.add (G1.add a b) c) (G1.add a (G1.add b c));
  (* scalar distributivity *)
  let s = Fr.random rng and t = Fr.random rng in
  Alcotest.check g1 "(s+t)g = sg + tg"
    (G1.mul g (Fr.add s t))
    (G1.add (G1.mul g s) (G1.mul g t))

let test_g2_group () =
  let g = G2.generator in
  Alcotest.(check bool) "gen on curve" true (not (G2.is_zero g));
  Alcotest.check g2 "r*g = O" G2.zero (G2.mul_nat g Fr.modulus);
  let s = Fr.random rng and t = Fr.random rng in
  Alcotest.check g2 "(s+t)g = sg + tg"
    (G2.mul g (Fr.add s t))
    (G2.add (G2.mul g s) (G2.mul g t))

let test_affine_roundtrip () =
  let a = G1.random rng in
  match G1.to_affine a with
  | None -> Alcotest.fail "random point should be finite"
  | Some xy -> Alcotest.check g1 "roundtrip" a (G1.of_affine xy)

let test_hash_to_curve () =
  let p1 = G1.hash_to_curve "zkdet/test/1" in
  let p2 = G1.hash_to_curve "zkdet/test/2" in
  Alcotest.(check bool) "distinct" false (G1.equal p1 p2);
  Alcotest.check g1 "deterministic" p1 (G1.hash_to_curve "zkdet/test/1");
  Alcotest.check g1 "in subgroup (r * p = O)" G1.zero (G1.mul_nat p1 Fr.modulus)

let test_msm () =
  let n = 100 in
  let points = Array.init n (fun _ -> G1.random rng) in
  let scalars = Array.init n (fun _ -> Fr.random rng) in
  let expected = ref G1.zero in
  for i = 0 to n - 1 do
    expected := G1.add !expected (G1.mul points.(i) scalars.(i))
  done;
  Alcotest.check g1 "pippenger = naive" !expected (G1.msm points scalars);
  Alcotest.check g1 "empty msm" G1.zero (G1.msm [||] [||]);
  (* small path *)
  let pts3 = Array.sub points 0 3 and sc3 = Array.sub scalars 0 3 in
  let exp3 =
    G1.add (G1.mul pts3.(0) sc3.(0)) (G1.add (G1.mul pts3.(1) sc3.(1)) (G1.mul pts3.(2) sc3.(2)))
  in
  Alcotest.check g1 "small msm" exp3 (G1.msm pts3 sc3)

let test_pairing_nondegenerate () =
  let e = Pairing.pairing G1.generator G2.generator in
  Alcotest.(check bool) "e(g1,g2) <> 1" false (Pairing.Gt.is_one e);
  (* order r in GT *)
  Alcotest.check gt "e^r = 1" Pairing.Gt.one (Pairing.Gt.pow_nat e Fr.modulus);
  let e = Pairing.pairing (G1.random rng) (G2.random rng) in
  Alcotest.(check bool) "e(P,Q) <> 1 on random points" false (Pairing.Gt.is_one e);
  Alcotest.check gt "e(P,Q)^r = 1" Pairing.Gt.one (Pairing.Gt.pow_nat e Fr.modulus)

let test_pairing_bilinear () =
  (* full-size random scalars *)
  let a = Fr.random rng and b = Fr.random rng in
  let p = G1.random rng and q = G2.random rng in
  let e_ab = Pairing.pairing (G1.mul p a) (G2.mul q b) in
  let e = Pairing.pairing p q in
  Alcotest.check gt "e(aP,bQ) = e(P,Q)^(ab)" (Pairing.Gt.pow e (Fr.mul a b)) e_ab;
  let s = Fr.random rng in
  Alcotest.check gt "e(sP,Q) = e(P,sQ)"
    (Pairing.pairing (G1.mul p s) q)
    (Pairing.pairing p (G2.mul q s));
  (* additivity in each argument *)
  let p2 = G1.random rng and q2 = G2.random rng in
  Alcotest.check gt "e(P+P',Q) = e(P,Q) e(P',Q)"
    (Pairing.Gt.mul (Pairing.pairing p q) (Pairing.pairing p2 q))
    (Pairing.pairing (G1.add p p2) q);
  Alcotest.check gt "e(P,Q+Q') = e(P,Q) e(P,Q')"
    (Pairing.Gt.mul (Pairing.pairing p q) (Pairing.pairing p q2))
    (Pairing.pairing p (G2.add q q2))

let test_fixed_base_table () =
  let table = G1.Fixed_base.create G1.generator in
  for _ = 1 to 10 do
    let s = Fr.random rng in
    Alcotest.check g1 "table mul = double-and-add" (G1.mul G1.generator s)
      (G1.Fixed_base.mul table s)
  done;
  Alcotest.check g1 "zero scalar" G1.zero (G1.Fixed_base.mul table Fr.zero)

let test_batch_to_affine () =
  let pts = Array.init 20 (fun i -> if i = 7 then G1.zero else G1.random rng) in
  let affs = G1.batch_to_affine pts in
  Array.iteri
    (fun i p ->
      match (affs.(i), G1.to_affine p) with
      | None, None -> ()
      | Some (x1, y1), Some (x2, y2) ->
        Alcotest.(check bool)
          (Printf.sprintf "affine %d" i)
          true
          (Fp.equal x1 x2 && Fp.equal y1 y2)
      | _ -> Alcotest.fail "batch/individual disagree on infinity")
    pts

let test_point_serialization () =
  let p = G1.random rng in
  let b = G1.to_bytes_fixed p in
  Alcotest.(check int) "fixed width" G1.encoded_size (String.length b);
  Alcotest.check g1 "roundtrip" p (G1.of_bytes_fixed b);
  Alcotest.check g1 "infinity roundtrip" G1.zero
    (G1.of_bytes_fixed (G1.to_bytes_fixed G1.zero));
  (* off-curve points are rejected *)
  let tampered = Bytes.of_string b in
  Bytes.set tampered 5 (Char.chr (Char.code (Bytes.get tampered 5) lxor 1));
  Alcotest.check_raises "off-curve rejected"
    (Invalid_argument "Weierstrass.of_affine: not on curve") (fun () ->
      ignore (G1.of_bytes_fixed (Bytes.to_string tampered)))

let test_compressed_serialization () =
  for _ = 1 to 10 do
    let p = G1.random rng in
    let b = G1.to_bytes_compressed p in
    Alcotest.(check int) "33 bytes" G1.compressed_size (String.length b);
    Alcotest.check g1 "roundtrip" p (G1.of_bytes_compressed b)
  done;
  Alcotest.check g1 "infinity" G1.zero
    (G1.of_bytes_compressed (G1.to_bytes_compressed G1.zero));
  Alcotest.check_raises "bad tag" (Invalid_argument "G1.of_bytes_compressed: bad tag")
    (fun () -> ignore (G1.of_bytes_compressed ("\x07" ^ String.make 32 '\x00')))

let test_pairing_check () =
  (* e(aG1, G2) * e(-G1, aG2) = 1 *)
  let a = Fr.random rng in
  Alcotest.(check bool) "product check holds" true
    (Pairing.pairing_check
       [ (G1.mul G1.generator a, G2.generator);
         (G1.neg G1.generator, G2.mul G2.generator a) ]);
  Alcotest.(check bool) "product check fails on garbage" false
    (Pairing.pairing_check
       [ (G1.mul G1.generator a, G2.generator);
         (G1.generator, G2.mul G2.generator a) ])

let fp12 = Alcotest.testable Fp12.pp Fp12.equal
let prep = Pairing.G2_prepared.of_g2

(* A pair list whose product of pairings is 1: e(aP,Q) e(-P,aQ) plus
   e(bP',Q') e(-bP',Q'). *)
let balanced_pairs () =
  let a = Fr.random rng and b = Fr.random rng in
  let p = G1.random rng and q = G2.random rng in
  let p' = G1.mul (G1.random rng) b and q' = G2.random rng in
  [ (G1.mul p a, q); (G1.neg p, G2.mul q a); (p', q'); (G1.neg p', q') ]

let test_prepared_matches_unprepared () =
  let pairs = balanced_pairs () in
  let prepared = List.map (fun (p, q) -> (p, prep q)) pairs in
  Alcotest.(check bool) "unprepared accepts" true (Pairing.pairing_check pairs);
  Alcotest.(check bool) "prepared accepts" true (Pairing.pairing_check_prepared prepared);
  let p = G1.random rng and q = G2.random rng in
  Alcotest.check fp12 "miller_loop = multi-Miller loop over prepared lines"
    (Pairing.miller_loop p q)
    (Pairing.multi_miller_loop [ (p, prep q) ]);
  (* a broken pair: both forms reject *)
  let broken = List.rev ((G1.random rng, G2.random rng) :: List.tl (List.rev pairs)) in
  Alcotest.(check bool) "unprepared rejects" false (Pairing.pairing_check broken);
  Alcotest.(check bool) "prepared rejects" false
    (Pairing.pairing_check_prepared (List.map (fun (p, q) -> (p, prep q)) broken))

let test_multi_miller_is_product () =
  let pairs = List.init 3 (fun _ -> (G1.random rng, G2.random rng)) in
  let product =
    List.fold_left (fun acc (p, q) -> Fp12.mul acc (Pairing.miller_loop p q)) Fp12.one pairs
  in
  Alcotest.check fp12 "shared squaring = product of loops" product
    (Pairing.multi_miller_loop (List.map (fun (p, q) -> (p, prep q)) pairs));
  Alcotest.check gt "final exponentiation of the product = product of pairings"
    (List.fold_left (fun acc (p, q) -> Pairing.Gt.mul acc (Pairing.pairing p q))
       Pairing.Gt.one pairs)
    (Pairing.final_exponentiation product)

let test_final_exponent_reference () =
  (* The fast chain computes exactly its declared exponent, checked
     against plain square-and-multiply on random (non-GT) inputs. *)
  for _ = 1 to 2 do
    let f = Fp12.random rng in
    Alcotest.(check string) "chain = pow_nat final_exponent"
      (Fp12.to_bytes (Fp12.pow_nat f Pairing.final_exponent))
      (Pairing.Gt.to_bytes (Pairing.final_exponentiation f))
  done

let test_dedicated_squarings () =
  for _ = 1 to 5 do
    let a6 = Fp6.random rng in
    assert (Fp6.equal (Fp6.sqr a6) (Fp6.mul a6 a6));
    let a = Fp12.random rng in
    Alcotest.check fp12 "fp12 sqr" (Fp12.mul a a) (Fp12.sqr a);
    (* cyclotomic subgroup element: a^((p^6 - 1)(p^2 + 1)) *)
    let t = Fp12.mul (Fp12.conj a) (Fp12.inv a) in
    let c = Fp12.mul (Fp12.frobenius (Fp12.frobenius t)) t in
    Alcotest.check fp12 "cyclotomic sqr" (Fp12.mul c c) (Fp12.cyclotomic_sqr c);
    (* sparse line multiplication against the dense product *)
    let c0 = Fp2.random rng and c3 = Fp2.random rng and c4 = Fp2.random rng in
    let line = Fp12.make (Fp6.of_fp2 c0) (Fp6.make c3 c4 Fp2.zero) in
    Alcotest.check fp12 "mul_by_034" (Fp12.mul a line) (Fp12.mul_by_034 a c0 c3 c4)
  done

let test_pairing_infinity () =
  let p = G1.random rng and q = G2.random rng in
  Alcotest.check gt "e(O,Q) = 1" Pairing.Gt.one (Pairing.pairing G1.zero q);
  Alcotest.check gt "e(P,O) = 1" Pairing.Gt.one (Pairing.pairing p G2.zero);
  Alcotest.(check bool) "O prepares to the neutral entry" true
    (Pairing.G2_prepared.is_zero (prep G2.zero));
  Alcotest.(check bool) "all-infinity check holds" true
    (Pairing.pairing_check [ (G1.zero, q); (p, G2.zero) ]);
  Alcotest.(check bool) "empty check holds" true (Pairing.pairing_check []);
  Alcotest.(check bool) "infinity pairs drop out of a valid check" true
    (Pairing.pairing_check ((G1.zero, q) :: (p, G2.zero) :: balanced_pairs ()));
  Alcotest.(check bool) "a lone non-trivial pair fails" false
    (Pairing.pairing_check [ (G1.zero, q); (p, q) ])

let test_wrong_lines_rejected () =
  let a = Fr.random rng in
  let p = G1.random rng and q = G2.random rng in
  let qa = G2.mul q a in
  let check lines_q lines_qa =
    Pairing.pairing_check_prepared [ (G1.mul p a, lines_q); (G1.neg p, lines_qa) ]
  in
  Alcotest.(check bool) "right lines accept" true (check (prep q) (prep qa));
  Alcotest.(check bool) "lines of another point reject" false
    (check (prep q) (prep (G2.add qa G2.generator)));
  Alcotest.(check bool) "lines of -Q reject" false (check (prep (G2.neg q)) (prep qa));
  Alcotest.(check bool) "swapped lines reject" false (check (prep qa) (prep q))

let () =
  Alcotest.run "zkdet_curve"
    [ ( "tower",
        [ Alcotest.test_case "fp2 field" `Quick test_fp2_field;
          Alcotest.test_case "fp6 field" `Quick test_fp6_field;
          Alcotest.test_case "fp12 field" `Quick test_fp12_field;
          Alcotest.test_case "frobenius" `Quick test_frobenius ] );
      ( "groups",
        [ Alcotest.test_case "g1 group law" `Quick test_g1_group;
          Alcotest.test_case "g2 group law" `Quick test_g2_group;
          Alcotest.test_case "affine roundtrip" `Quick test_affine_roundtrip;
          Alcotest.test_case "hash to curve" `Quick test_hash_to_curve;
          Alcotest.test_case "msm" `Quick test_msm;
          Alcotest.test_case "fixed-base table" `Quick test_fixed_base_table;
          Alcotest.test_case "batch to affine" `Quick test_batch_to_affine;
          Alcotest.test_case "point serialization" `Quick test_point_serialization;
          Alcotest.test_case "compressed points" `Quick test_compressed_serialization ] );
      ( "pairing",
        [ Alcotest.test_case "non-degenerate" `Quick test_pairing_nondegenerate;
          Alcotest.test_case "bilinear" `Slow test_pairing_bilinear;
          Alcotest.test_case "pairing check" `Slow test_pairing_check;
          Alcotest.test_case "prepared = unprepared" `Quick
            test_prepared_matches_unprepared;
          Alcotest.test_case "multi-Miller loop = product" `Quick
            test_multi_miller_is_product;
          Alcotest.test_case "final exponent reference" `Slow
            test_final_exponent_reference;
          Alcotest.test_case "dedicated squarings" `Quick test_dedicated_squarings;
          Alcotest.test_case "inputs at infinity" `Quick test_pairing_infinity;
          Alcotest.test_case "wrong prepared lines rejected" `Quick
            test_wrong_lines_rejected ] ) ]
