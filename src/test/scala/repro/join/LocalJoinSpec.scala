package repro.join

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TextGen

class LocalJoinSpec extends AnyFunSuite {
  val gctx: TextGen.GenContext = TextGen.context(TextGen.MedLite)
  val k: Knowledge = gctx.knowledge
  val ds: TextGen.JoinDataset = TextGen.joinDataset(gctx, n = 120, seed = 5L)

  private def pairSet(v: Vector[(Int, Int, Double)]): Set[(Int, Int)] =
    v.map(r => (r._1, r._2)).toSet

  test("U-Filter self-join equals brute force (no false negatives, τ=1)") {
    for (theta <- Seq(0.7, 0.8, 0.9)) {
      val cfg = LocalJoin.Config(theta, 1, SigAlgo.UFilter)
      val (got, _) = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)
      val want = LocalJoin.bruteForce(k, ds.strings, ds.strings, cfg, selfJoin = true)
      assert(pairSet(got) == pairSet(want), s"theta=$theta")
    }
  }

  test("AU-Filter results are a subset of U-Filter, shrinking with τ") {
    val theta = 0.75
    val resultsByTau = (1 to 4).map { tau =>
      val cfg = LocalJoin.Config(theta, tau, SigAlgo.AUHeuristic)
      pairSet(LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)._1)
    }
    for (i <- 1 until resultsByTau.length)
      assert(resultsByTau(i).subsetOf(resultsByTau(i - 1)), s"tau=${i + 1} not ⊆ tau=$i")
  }

  test("AU heuristic and DP joins return identical results") {
    for (theta <- Seq(0.75, 0.85); tau <- Seq(2, 3)) {
      val h = LocalJoin.join(k, ds.strings, ds.strings,
        LocalJoin.Config(theta, tau, SigAlgo.AUHeuristic), selfJoin = true)._1
      val d = LocalJoin.join(k, ds.strings, ds.strings,
        LocalJoin.Config(theta, tau, SigAlgo.AUDp), selfJoin = true)._1
      assert(pairSet(h) == pairSet(d), s"theta=$theta tau=$tau")
    }
  }

  test("DP produces no more candidates than the heuristic") {
    for (tau <- Seq(2, 3)) {
      val cfgH = LocalJoin.Config(0.75, tau, SigAlgo.AUHeuristic)
      val cfgD = LocalJoin.Config(0.75, tau, SigAlgo.AUDp)
      val (_, statsH) = LocalJoin.join(k, ds.strings, ds.strings, cfgH, selfJoin = true)
      val (_, statsD) = LocalJoin.join(k, ds.strings, ds.strings, cfgD, selfJoin = true)
      assert(statsD.candidates <= statsH.candidates, s"tau=$tau")
      assert(statsD.avgSignatureLen <= statsH.avgSignatureLen + 1e-9, s"tau=$tau")
    }
  }

  test("two-collection join agrees with brute force") {
    val left = ds.strings.take(60)
    val right = ds.strings.drop(60)
    val cfg = LocalJoin.Config(0.75, 1, SigAlgo.UFilter)
    val (got, _) = LocalJoin.join(k, left, right, cfg)
    val want = LocalJoin.bruteForce(k, left, right, cfg)
    assert(pairSet(got) == pairSet(want))
  }

  test("join finds the planted similar pairs that verify above θ") {
    val cfg = LocalJoin.Config(0.7, 1, SigAlgo.UFilter)
    val (got, _) = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)
    val verified = ds.truePairs.filter { case (i, j) =>
      Usim.approx(k, ds.strings(i), ds.strings(j)) >= 0.7 }
    assert(verified.nonEmpty)
    assert(verified.subsetOf(pairSet(got)))
  }

  test("measure-restricted joins find fewer pairs than TJS") {
    val full = pairSet(LocalJoin.join(k, ds.strings, ds.strings,
      LocalJoin.Config(0.75, 1, SigAlgo.UFilter, MeasureSet.TJS), selfJoin = true)._1)
    for (m <- Seq(MeasureSet.J, MeasureSet.S, MeasureSet.T)) {
      val sub = pairSet(LocalJoin.join(k, ds.strings, ds.strings,
        LocalJoin.Config(0.75, 1, SigAlgo.UFilter, m), selfJoin = true)._1)
      assert(sub.size <= full.size, s"measure ${m.label}")
    }
  }

  test("stats are coherent: candidates <= processed, results <= candidates") {
    val (res, st) = LocalJoin.join(k, ds.strings, ds.strings,
      LocalJoin.Config(0.8, 2, SigAlgo.AUDp), selfJoin = true)
    assert(st.candidates <= st.processedPairs)
    assert(st.results == res.length && st.results <= st.candidates)
    assert(st.avgSignatureLen > 0)
  }

  test("stats count pruned pairs: pruned <= candidates, results <= candidates - pruned, repeatable") {
    val cfg = LocalJoin.Config(0.75, 2, SigAlgo.AUHeuristic)
    val (res, st) = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)
    assert(st.pruned > 0 && st.pruned <= st.candidates)
    assert(st.results == res.length && st.results <= st.candidates - st.pruned)
    assert(LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)._2 == st)
  }

  test("bounded verification equals bruteForce, sims bit for bit") {
    for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite)) {
      val ctx = TextGen.context(kind, 3L)
      val a = TextGen.joinDataset(ctx, 50, 3L).strings
      val b = TextGen.joinDataset(ctx, 50, 31L).strings
      def bits(v: Vector[(Int, Int, Double)]) = v.map(r => (r._1, r._2, java.lang.Double.doubleToLongBits(r._3)))
      for (theta <- Seq(0.7, 0.75, 0.85, 0.95); m <- Seq(MeasureSet.TJS, MeasureSet.J, MeasureSet.T)) {
        val cfg = LocalJoin.Config(theta, measures = m)
        for ((left, right, self) <- Seq((a, a, true), (a, b, false))) {
          val pairs = for (i <- left.indices.iterator; j <- right.indices.iterator if !self || i < j) yield (i, j)
          val got = LocalJoin.verifyStage(ctx.knowledge, left, right, pairs, cfg, self)
          val want = LocalJoin.bruteForce(ctx.knowledge, left, right, cfg, self)
          assert(bits(got) == bits(want), s"${kind.name} θ=$theta ${m.label} self=$self")
        }
      }
    }
  }

  test("filterStage τ monotonicity: higher τ yields fewer candidates") {
    val order = LocalJoin.buildOrder(k, ds.strings, MeasureSet.TJS, 2)
    val cfg = LocalJoin.Config(0.75, 4, SigAlgo.AUHeuristic)
    val sigs = LocalJoin.signatures(k, ds.strings, order, cfg)
    val counts = (1 to 4).map(t => LocalJoin.filterStage(sigs, sigs, t, selfJoin = true)._2.size)
    assert(counts == counts.sorted.reverse)
  }

  /** The string-keyed filter `filterStage` replaced, transcribed:
    * hash-map inverted lists, then a pair-count map over every list pair.
    */
  private def stringKeyedFilter(
      sigS: IndexedSeq[Set[String]],
      sigT: IndexedSeq[Set[String]],
      tau: Int,
      selfJoin: Boolean,
  ): (Long, Vector[(Int, Int)]) = {
    def invert(sigs: IndexedSeq[Set[String]]): Map[String, Vector[Int]] =
      sigs.indices.flatMap(i => sigs(i).map(_ -> i)).groupBy(_._1).view
        .mapValues(_.map(_._2).toVector.sorted).toMap
    val invS = invert(sigS)
    val invT = if (selfJoin) invS else invert(sigT)
    var processed = 0L
    val counts = scala.collection.mutable.LongMap[Int]()
    for ((key, ls) <- invS; lt <- invT.get(key)) {
      processed += (if (selfJoin) ls.length.toLong * (ls.length - 1) / 2
                    else ls.length.toLong * lt.length)
      for (i <- ls.indices; j <- (if (selfJoin) i + 1 else 0) until lt.length) {
        val code = ls(i).toLong << 32 | lt(j).toLong
        counts(code) = counts.getOrElse(code, 0) + 1
      }
    }
    val cands = counts.iterator.collect {
      case (code, c) if c >= tau => ((code >> 32).toInt, code.toInt)
    }.toVector.sorted
    (processed, cands)
  }

  test("filterStage equals the string-keyed filter it replaced") {
    val taus = Seq(1, 2, 3, 4, 6, 8)
    def same(sigS: IndexedSeq[Set[String]], sigT: IndexedSeq[Set[String]], order: Map[String, Int],
        selfJoin: Boolean, what: String): Unit = {
      val rS = sigS.map(_.iterator.map(order).toArray.sorted)
      val rT = if (selfJoin) rS else sigT.map(_.iterator.map(order).toArray.sorted)
      for (tau <- taus)
        assert(LocalJoin.filterStage(rS, rT, tau, selfJoin) ==
          stringKeyedFilter(sigS, sigT, tau, selfJoin), s"$what τ=$tau selfJoin=$selfJoin")
    }
    for (kind <- Seq(TextGen.MedLite, TextGen.WikiLite); seed <- Seq(3L, 31L)) {
      val ctx = TextGen.context(kind, seed)
      val strings = TextGen.joinDataset(ctx, n = 100, seed = seed).strings
      val order = LocalJoin.buildOrder(ctx.knowledge, strings, MeasureSet.TJS, 2)
      val contexts = strings.map(s =>
        SignatureContext(PreparedString(ctx.knowledge, s), MeasureSet.TJS, 2, order))
      for (algo <- Seq(SigAlgo.AUHeuristic, SigAlgo.AUDp); sigTau <- taus) {
        val lens = contexts.map(c => if (algo == SigAlgo.AUDp) c.auDp(0.75, sigTau)
                                     else c.auHeuristic(0.75, sigTau))
        // the keys the parent's signature held, and the ranks they carry now
        val keys = contexts.zip(lens).map { case (c, len) => c.pebbles.take(len).map(_.key).toSet }
        for (i <- contexts.indices)
          assert(contexts(i).signature(lens(i)).toSeq == keys(i).toSeq.map(order).sorted)
        val what = s"${kind.name} seed $seed $algo sigτ=$sigTau"
        same(keys, keys, order, selfJoin = true, what)
        same(keys.take(60), keys.drop(40), order, selfJoin = false, what)
      }
    }
    // edge cases, ranked by one order over both sides
    val a = Set("a", "b", "c")
    val b = Set("b", "c", "d")
    val cases = Seq[(String, IndexedSeq[Set[String]], IndexedSeq[Set[String]])](
      ("empty", Vector.empty, Vector.empty),
      ("empty left", Vector.empty, Vector(a, b)),
      ("empty right", Vector(a, b), Vector.empty),
      ("all-empty signatures", Vector.fill(4)(Set.empty[String]), Vector.fill(3)(Set.empty[String])),
      ("one string", Vector(a), Vector(a)),
      ("duplicates", Vector(a, a, b, a, b, Set.empty, a), Vector(b, a, a)),
      ("ranks one side lacks", Vector(Set("x", "y", "a"), Set("z"), a), Vector(b, Set("b"), Set("w", "d"))))
    for ((what, sigS, sigT) <- cases) {
      val order = (sigS ++ sigT).flatten.distinct.sorted.zipWithIndex.toMap
      same(sigS, sigS, order, selfJoin = true, what)
      same(sigS, sigT, order, selfJoin = false, what)
      same(sigT, sigS, order, selfJoin = false, what)
    }
  }

  test("a join that builds its order equals the join given buildOrder's order, stats included") {
    def bits(v: Vector[(Int, Int, Double)]) =
      v.map { case (i, j, sim) => (i, j, java.lang.Double.doubleToLongBits(sim)) }
    var results = 0
    for ((kind, theta) <- Seq(TextGen.MedLite -> 0.75, TextGen.WikiLite -> 0.8)) {
      val ctx = TextGen.context(kind, 3L)
      val strings = TextGen.joinDataset(ctx, n = 100, seed = 3L).strings
      val (left, right) = (strings.take(60), strings.drop(40))
      for (algo <- SigAlgo.all; tau <- Seq(1, 4)) {
        val cfg = LocalJoin.Config(theta, tau, algo)
        for ((l, r, selfJoin) <- Seq((strings, strings, true), (left, right, false))) {
          val counted = if (selfJoin) l else l ++ r
          val order = LocalJoin.buildOrder(ctx.knowledge, counted, cfg.measures, cfg.q)
          val (got, gotStats) = LocalJoin.join(ctx.knowledge, l, r, cfg, selfJoin)
          val (want, wantStats) = LocalJoin.join(ctx.knowledge, l, r, cfg, selfJoin, Some(order))
          val what = s"${kind.name} ${algo.label} τ=$tau selfJoin=$selfJoin"
          assert(bits(got) == bits(want), what)
          assert(gotStats == wantStats, what)
          results += got.length
        }
      }
    }
    assert(results > 0)
  }

  test("avgSignatureLen averages the non-empty side of a cross-join") {
    val (_, st) = LocalJoin.join(k, Vector.empty, ds.strings.take(10), LocalJoin.Config(0.8))
    assert(st.avgSignatureLen > 0)
  }

  test("empty collections join to empty") {
    val cfg = LocalJoin.Config(0.8)
    val (res, st) = LocalJoin.join(k, Vector.empty, Vector.empty, cfg)
    assert(res.isEmpty && st.processedPairs == 0)
  }

  test("identical duplicate strings always join at any θ") {
    val strings = Vector("latte cake espresso", "latte cake espresso", "unrelated tokens here")
    for (algo <- SigAlgo.all; theta <- Seq(0.8, 1.0)) {
      val cfg = LocalJoin.Config(theta, 1, algo)
      val (res, _) = LocalJoin.join(k, strings, strings, cfg, selfJoin = true)
      assert(pairSet(res).contains((0, 1)), s"$algo theta=$theta")
    }
  }

  test("join reports exactly the candidates whose per-pair Usim.approx reaches θ, bit for bit") {
    def bits(v: Vector[(Int, Int, Double)]) =
      v.map(r => (r._1, r._2, java.lang.Double.doubleToRawLongBits(r._3)))
    def check(k: Knowledge, left: IndexedSeq[String], right: IndexedSeq[String],
        cfg: LocalJoin.Config, selfJoin: Boolean): Unit = {
      val order = LocalJoin.buildOrder(k, if (selfJoin) left else left ++ right, cfg.measures, cfg.q)
      val sigS = LocalJoin.signatures(k, left, order, cfg)
      val sigT = if (selfJoin) sigS else LocalJoin.signatures(k, right, order, cfg)
      val want = LocalJoin.filterStage(sigS, sigT, cfg.tau, selfJoin)._2.flatMap { case (i, j) =>
        val sim = Usim.approx(k, left(i), right(j), cfg.measures, cfg.q, cfg.tParam)
        if (sim >= LocalJoin.minSim(cfg.theta)) Some((i, j, sim)) else None
      }
      val got = LocalJoin.join(k, left, right, cfg, selfJoin, Some(order))._1
      assert(want.nonEmpty, s"no pairs reach θ=${cfg.theta} (selfJoin=$selfJoin)")
      assert(bits(got) == bits(want))
    }
    val cfg = LocalJoin.Config(0.6, 1, SigAlgo.UFilter)
    check(k, ds.strings, ds.strings, cfg, selfJoin = true)
    check(k, ds.strings.take(80), ds.strings.drop(40), cfg, selfJoin = false)
    val wiki = TextGen.context(TextGen.WikiLite, 31L)
    val wikiDs = TextGen.joinDataset(wiki, 100, 31L)
    check(wiki.knowledge, wikiDs.strings, wikiDs.strings, cfg.copy(theta = 0.8), selfJoin = true)
  }
}
