(* Plonk verifier: O(1) work — a fixed number of scalar multiplications and
   exactly 2 pairings, independent of circuit size (§VI-B.3 of the paper). *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Domain = Zkdet_poly.Domain
module Telemetry = Zkdet_telemetry.Telemetry
module Obs = Zkdet_obs.Obs

(** [prepare vk publics proof] reduces verification to a single pairing
    equation: the proof is valid iff [e(L, [tau]G2) = e(R, G2)] for the
    returned [(L, R)]. [None] signals a structural rejection. Exposing the
    pair enables batch verification (below) and the on-chain aggregated
    check. *)
let prepare (vk : Preprocess.verification_key) (publics : Fr.t array)
    (proof : Proof.t) : (G1.t * G1.t) option =
  if Array.length publics <> vk.Preprocess.vk_n_public then None
  else begin
    let n = vk.Preprocess.vk_n in
    let domain = vk.Preprocess.vk_domain in
    let k1 = vk.Preprocess.vk_k1 and k2 = vk.Preprocess.vk_k2 in
    (* Recompute the challenges from the transcript. *)
    let tr = Transcript.create ~label:"plonk" in
    Prover.absorb_vk_and_publics tr vk publics;
    Transcript.absorb_g1 tr ~label:"a" proof.Proof.cm_a;
    Transcript.absorb_g1 tr ~label:"b" proof.Proof.cm_b;
    Transcript.absorb_g1 tr ~label:"c" proof.Proof.cm_c;
    let beta = Transcript.challenge_fr tr ~label:"beta" in
    let gamma = Transcript.challenge_fr tr ~label:"gamma" in
    Transcript.absorb_g1 tr ~label:"z" proof.Proof.cm_z;
    let alpha = Transcript.challenge_fr tr ~label:"alpha" in
    Transcript.absorb_g1 tr ~label:"t_lo" proof.Proof.cm_t_lo;
    Transcript.absorb_g1 tr ~label:"t_mid" proof.Proof.cm_t_mid;
    Transcript.absorb_g1 tr ~label:"t_hi" proof.Proof.cm_t_hi;
    let zeta = Transcript.challenge_fr tr ~label:"zeta" in
    Transcript.absorb_fr tr ~label:"ea" proof.Proof.eval_a;
    Transcript.absorb_fr tr ~label:"eb" proof.Proof.eval_b;
    Transcript.absorb_fr tr ~label:"ec" proof.Proof.eval_c;
    Transcript.absorb_fr tr ~label:"es1" proof.Proof.eval_s1;
    Transcript.absorb_fr tr ~label:"es2" proof.Proof.eval_s2;
    Transcript.absorb_fr tr ~label:"ezw" proof.Proof.eval_z_omega;
    let v = Transcript.challenge_fr tr ~label:"v" in
    Transcript.absorb_g1 tr ~label:"w_zeta" proof.Proof.cm_w_zeta;
    Transcript.absorb_g1 tr ~label:"w_zeta_omega" proof.Proof.cm_w_zeta_omega;
    let u = Transcript.challenge_fr tr ~label:"u" in

    let eval_a = proof.Proof.eval_a
    and eval_b = proof.Proof.eval_b
    and eval_c = proof.Proof.eval_c
    and eval_s1 = proof.Proof.eval_s1
    and eval_s2 = proof.Proof.eval_s2
    and eval_z_omega = proof.Proof.eval_z_omega in
    let alpha2 = Fr.sqr alpha in
    let zh_zeta = Domain.vanishing_eval domain zeta in
    (* zeta inside the domain would make L_i evaluation divide by zero;
       negligible probability, reject outright. *)
    if Fr.is_zero zh_zeta then None
    else begin
      let l1_zeta = Domain.lagrange_eval domain 0 zeta in
      let pi_zeta =
        let acc = ref Fr.zero in
        Array.iteri
          (fun i x ->
            acc := Fr.sub !acc (Fr.mul x (Domain.lagrange_eval domain i zeta)))
          publics;
        !acc
      in
      let r_const =
        Fr.sub
          (Fr.sub pi_zeta (Fr.mul alpha2 l1_zeta))
          (Fr.mul alpha
             (Fr.mul
                (Fr.mul
                   (Fr.add (Fr.add eval_a (Fr.mul beta eval_s1)) gamma)
                   (Fr.add (Fr.add eval_b (Fr.mul beta eval_s2)) gamma))
                (Fr.mul (Fr.add eval_c gamma) eval_z_omega)))
      in
      let perm_z_coeff =
        Fr.add
          (Fr.mul alpha
             (Fr.mul
                (Fr.mul
                   (Fr.add (Fr.add eval_a (Fr.mul beta zeta)) gamma)
                   (Fr.add (Fr.add eval_b (Fr.mul beta (Fr.mul k1 zeta))) gamma))
                (Fr.add (Fr.add eval_c (Fr.mul beta (Fr.mul k2 zeta))) gamma)))
          (Fr.mul alpha2 l1_zeta)
      in
      let perm_s3_coeff =
        Fr.neg
          (Fr.mul alpha
             (Fr.mul
                (Fr.mul
                   (Fr.add (Fr.add eval_a (Fr.mul beta eval_s1)) gamma)
                   (Fr.add (Fr.add eval_b (Fr.mul beta eval_s2)) gamma))
                (Fr.mul beta eval_z_omega)))
      in
      let zeta_n = Fr.pow zeta n in
      let v1 = v in
      let v2 = Fr.mul v1 v in
      let v3 = Fr.mul v2 v in
      let v4 = Fr.mul v3 v in
      let v5 = Fr.mul v4 v in
      (* [E] = (-r_const + v a + v^2 b + v^3 c + v^4 s1 + v^5 s2 + u z_w) [1] *)
      let e_scalar =
        List.fold_left Fr.add (Fr.neg r_const)
          [ Fr.mul v1 eval_a; Fr.mul v2 eval_b; Fr.mul v3 eval_c;
            Fr.mul v4 eval_s1; Fr.mul v5 eval_s2; Fr.mul u eval_z_omega ]
      in
      (* Final pairing check:
         e(W_z + u W_zw, [tau]G2) = e(zeta W_z + u zeta omega W_zw + F - E, G2)
         with [F] = [D] + v[a] + v^2[b] + v^3[c] + v^4[s1] + v^5[s2] + u[z]
         and [D] the polynomial part of the linearization commitment:
           [D] = ab[qm] + a[ql] + b[qr] + c[qo] + [qc] + perm_z [z]
                 + perm_s3 [s3] - Z_H(zeta) ([t_lo] + zeta^n [t_mid]
                 + zeta^2n [t_hi]).
         The right-hand side is one MSM. *)
      let lhs_g1 =
        G1.add proof.Proof.cm_w_zeta (G1.mul proof.Proof.cm_w_zeta_omega u)
      in
      let zeta_omega = Fr.mul zeta (Domain.omega domain) in
      let neg_zh = Fr.neg zh_zeta in
      let rhs_g1 =
        G1.msm
          [| vk.Preprocess.cm_qm; vk.Preprocess.cm_ql; vk.Preprocess.cm_qr;
             vk.Preprocess.cm_qo; vk.Preprocess.cm_qc; proof.Proof.cm_z;
             vk.Preprocess.cm_sigma3; proof.Proof.cm_t_lo;
             proof.Proof.cm_t_mid; proof.Proof.cm_t_hi; proof.Proof.cm_a;
             proof.Proof.cm_b; proof.Proof.cm_c; vk.Preprocess.cm_sigma1;
             vk.Preprocess.cm_sigma2; G1.generator; proof.Proof.cm_w_zeta;
             proof.Proof.cm_w_zeta_omega |]
          [| Fr.mul eval_a eval_b; eval_a; eval_b; eval_c; Fr.one;
             Fr.add perm_z_coeff u; perm_s3_coeff; neg_zh;
             Fr.mul neg_zh zeta_n; Fr.mul neg_zh (Fr.sqr zeta_n); v1; v2; v3;
             v4; v5; Fr.neg e_scalar; zeta; Fr.mul u zeta_omega |]
      in
      Some (lhs_g1, rhs_g1)
    end
  end

let verify (vk : Preprocess.verification_key) (publics : Fr.t array)
    (proof : Proof.t) : bool =
  Telemetry.with_span "plonk.verify" @@ fun () ->
  Telemetry.count "plonk.verifies" 1;
  let ok =
    match prepare vk publics proof with
    | None -> false
    | Some (lhs, rhs) ->
      Pairing.pairing_check_prepared
        [ (lhs, vk.Preprocess.vk_g2_tau_lines);
          (G1.neg rhs, vk.Preprocess.vk_g2_lines) ]
  in
  if Obs.is_enabled () then
    Obs.emit (Zkdet_obs.Event.Proof_verified { system = "plonk"; ok });
  ok

(** The Fiat–Shamir RLC scalars {!verify_batch} folds with: one per item,
    derived from a transcript over every (vk, publics, proof) in the
    batch.  A pure hash chain over canonical bytes, so the scalars — and
    therefore the batch verdict — are identical at any [ZKDET_DOMAINS].
    Exposed for the determinism tests and for audit tooling. *)
let batch_scalars
    (items : (Preprocess.verification_key * Fr.t array * Proof.t) list) :
    Fr.t list =
  (* Serialize each distinct vk once (physical equality): a settlement
     batch repeats the same key N times. *)
  let vk_bytes_cache = ref [] in
  let vk_bytes vk =
    match List.assq_opt vk !vk_bytes_cache with
    | Some b -> b
    | None ->
      let b = Preprocess.vk_to_bytes vk in
      vk_bytes_cache := (vk, b) :: !vk_bytes_cache;
      b
  in
  Transcript.batch_challenges ~label:"plonk"
    (List.map
       (fun (vk, publics, proof) ->
         (vk_bytes vk, publics, Proof.wire_encode proof))
       items)

(** Verify many proofs — possibly for different circuits — with one folded
    KZG check per distinct SRS: [prepare] reduces each proof to a pair
    (L, R) valid iff [e(L, tau G2) = e(R, G2)], i.e. a KZG opening of R at
    point 0 with witness L, and {!Kzg.verify_batch_openings} folds every
    pair over the same SRS into a single pairing check under the
    deterministic {!batch_scalars}.  Soundness error 1/|Fr| per batch;
    accepts exactly when every proof verifies individually (grouping by
    SRS keeps mixed-SRS batches equivalent to per-proof verification). *)
let verify_batch
    (items : (Preprocess.verification_key * Fr.t array * Proof.t) list) : bool =
  match items with
  | [] -> true
  | [ (vk, publics, proof) ] ->
    Telemetry.count "verify.batch_size" 1;
    Telemetry.observe "verify.batch_size" 1.0;
    verify vk publics proof
  | _ ->
    Telemetry.with_span "plonk.verify_batch" @@ fun () ->
    let n = List.length items in
    Telemetry.count "verify.batch_size" n;
    Telemetry.observe "verify.batch_size" (float_of_int n);
    let rhos = batch_scalars items in
    (* Group the prepared pairs by SRS (vk_g2_tau, vk_g2), in first-use
       order: circuits preprocessed over one SRS fold together; a batch
       spanning several ceremonies costs one pairing check per SRS.  The
       group keeps the first key's prepared lines for its check. *)
    let groups :
        (Preprocess.verification_key * ((G1.t * G1.t) * Fr.t) list ref) list ref =
      ref []
    in
    let structural_ok =
      List.for_all2
        (fun (vk, publics, proof) rho ->
          match prepare vk publics proof with
          | None -> false
          | Some lr ->
            let same_srs (first : Preprocess.verification_key) =
              G2.equal first.vk_g2_tau vk.vk_g2_tau && G2.equal first.vk_g2 vk.vk_g2
            in
            (match List.find_opt (fun (first, _) -> same_srs first) !groups with
            | Some (_, cell) -> cell := (lr, rho) :: !cell
            | None -> groups := (vk, ref [ (lr, rho) ]) :: !groups);
            true)
        items rhos
    in
    let ok =
      structural_ok
      && List.for_all
           (fun ((vk : Preprocess.verification_key), cell) ->
             let entries = List.rev !cell in
             Zkdet_kzg.Kzg.verify_batch_openings ~g2:vk.vk_g2_lines
               ~g2_tau:vk.vk_g2_tau_lines
               (List.map
                  (fun ((l, r), _) -> (r, Fr.zero, Fr.zero, l))
                  entries)
               ~rhos:(List.map snd entries))
           !groups
    in
    if Obs.is_enabled () then
      Obs.emit (Zkdet_obs.Event.Proof_verified { system = "plonk"; ok });
    ok
