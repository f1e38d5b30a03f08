package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TextGen

class KJoinSpec extends AnyFunSuite {
  val k: Knowledge = Knowledge.figure1

  test("sim equals taxonomy-restricted unified similarity") {
    assert(math.abs(KJoin.sim(k, "latte", "espresso") - 0.8) < 1e-9)
    assert(KJoin.sim(k, "coffee shop", "cafe") == 0.0) // no taxonomy relation
  }

  test("signature emits ancestors in the qualifying depth range") {
    val sig = KJoin.signature(k, "latte", theta = 0.8)
    // latte depth 5: minDepth = 4 → {latte(5), coffee drinks(4)}
    assert(sig.size == 2)
  }

  test("lower θ emits more ancestors") {
    assert(KJoin.signature(k, "latte", 0.4).size > KJoin.signature(k, "latte", 0.9).size)
  }

  test("strings without entities have empty signatures") {
    assert(KJoin.signature(k, "unrelated words", 0.8).isEmpty)
  }

  test("join finds sibling entities and nothing else") {
    val strings = Vector("latte", "espresso", "cake", "unrelated")
    val res = KJoin.join(k, strings, theta = 0.8)
    assert(res.map(r => (r._1, r._2)) == Vector((0, 1)))
  }

  test("join is lossless vs brute force on taxonomy pairs") {
    val gctx = TextGen.context(TextGen.MedLite)
    val strings = Vector.tabulate(40) { i =>
      gctx.knowledge.taxonomy.names(gctx.deepNodes(i * 7 % gctx.deepNodes.size)).mkString(" ")
    }
    val theta = 0.75
    val got = KJoin.join(gctx.knowledge, strings, theta).map(r => (r._1, r._2)).toSet
    val want = (for {
      i <- strings.indices; j <- i + 1 until strings.length
      if KJoin.sim(gctx.knowledge, strings(i), strings(j)) >= theta - 1e-12
    } yield (i, j)).toSet
    assert(got == want)
  }
}

class AdaptJoinSpec extends AnyFunSuite {

  test("sim is whole-string gram Jaccard") {
    assert(math.abs(AdaptJoin.sim("helsingki", "helsinki") - 6.0 / 9.0) < 1e-9)
  }

  test("prefix length follows the ℓ-prefix scheme") {
    val order = AdaptJoin.gramOrder(Seq("abcdef"), 2)
    // |G|=5 distinct grams... occurrences sorted; len = |G| − ⌈θ|G|⌉ + ℓ
    val p1 = AdaptJoin.prefix("abcdef", 0.8, 1, order, 2)
    val p2 = AdaptJoin.prefix("abcdef", 0.8, 2, order, 2)
    assert(p2.size == p1.size + 1)
  }

  test("chooseEll returns a value in range") {
    val strings = Vector("coffee shop", "coffee shpo", "espresso bar", "tea house")
    val order = AdaptJoin.gramOrder(strings, 2)
    val ell = AdaptJoin.chooseEll(strings, 0.8, order, 2)
    assert(ell >= 1 && ell <= 4)
  }

  test("join is lossless vs brute force") {
    val gctx = TextGen.context(TextGen.MedLite)
    val rng = new scala.util.Random(17)
    val strings = Vector.tabulate(60) { i =>
      if (i % 3 == 0) {
        val w = gctx.vocab(rng.nextInt(gctx.vocab.length))
        s"$w ${gctx.vocab(rng.nextInt(gctx.vocab.length))}"
      } else if (i % 3 == 1) {
        val prev = Tokenizer.tokens(s"base string $i")
        prev.mkString(" ")
      } else {
        val w = gctx.vocab(i % gctx.vocab.length)
        s"$w ${TextGen.typo(w, rng)}"
      }
    } ++ Vector("ab", "ab", "abc", "abc", "xyzzy", "xyzzy") // fewer grams than ℓ needs in common
    for (theta <- Seq(0.7, 0.85)) {
      val got = AdaptJoin.join(strings, theta).map(r => (r._1, r._2)).toSet
      val want = (for {
        i <- strings.indices; j <- i + 1 until strings.length
        if AdaptJoin.sim(strings(i), strings(j)) >= theta - 1e-12
      } yield (i, j)).toSet
      assert(got == want, s"theta=$theta missing=${want -- got}")
    }
  }

  test("typo'd duplicates are found") {
    val strings = Vector("espresso macchiato", "espresso machiato", "latte art")
    val res = AdaptJoin.join(strings, 0.7)
    assert(res.exists(r => (r._1, r._2) == (0, 1)))
  }
}

class PKduckSpec extends AnyFunSuite {
  val k: Knowledge = Knowledge.figure1

  test("derivations include the original and rule rewrites") {
    val d = PKduck.derivations(k, Vector("coffee", "shop", "latte"))
    assert(d.contains(Vector("coffee", "shop", "latte")))
    assert(d.contains(Vector("cafe", "latte")))
  }

  test("derivations apply rules in both directions") {
    val d = PKduck.derivations(k, Vector("cafe", "latte"))
    assert(d.contains(Vector("coffee", "shop", "latte")))
  }

  test("sim finds full-string synonym equivalence") {
    assert(PKduck.sim(k, "coffee shop", "cafe") == 1.0)
  }

  test("sim accounts for partial rewrites") {
    val s = PKduck.sim(k, "coffee shop latte", "cafe latte")
    assert(s == 1.0) // rewrite then identical token sets
  }

  test("sim without applicable rules is plain token Jaccard") {
    assert(math.abs(PKduck.sim(k, "a b", "a c") - 1.0 / 3) < 1e-9)
  }

  test("join is lossless vs brute force") {
    val strings = Vector("coffee shop", "cafe", "cake", "gateau", "latte", "latte art")
    val theta = 0.5
    val got = PKduck.join(k, strings, theta).map(r => (r._1, r._2)).toSet
    val want = (for {
      i <- strings.indices; j <- i + 1 until strings.length
      if PKduck.sim(k, strings(i), strings(j)) >= theta - 1e-12
    } yield (i, j)).toSet
    assert(got == want)
  }

  test("derivation cap bounds the search") {
    val gctx = TextGen.context(TextGen.MedLite)
    val busy = gctx.knowledge.rules.take(3).flatMap(_.lhs).mkString(" ")
    val d = PKduck.derivations(gctx.knowledge, Tokenizer.tokens(busy))
    assert(d.size <= PKduck.MaxDerivations * 8) // frontier expansion bounded
  }
}

class CombinationSpec extends AnyFunSuite {
  val k: Knowledge = Knowledge.figure1

  test("combination union covers each baseline's results") {
    val strings = Vector("latte", "espresso", "coffee shop", "cafe", "helsingki", "helsinki")
    val theta = 0.6
    val comb = Combination.join(k, strings, theta).toSet
    assert(KJoin.join(k, strings, theta).map(r => (r._1, r._2)).toSet.subsetOf(comb))
    assert(AdaptJoin.join(strings, theta).map(r => (r._1, r._2)).toSet.subsetOf(comb))
    assert(PKduck.join(k, strings, theta).map(r => (r._1, r._2)).toSet.subsetOf(comb))
  }

  test("combination sim is the max of the three") {
    val s = Combination.sim(k, "latte", "espresso")
    assert(math.abs(s - 0.8) < 1e-9) // taxonomy wins
  }

  test("combination misses mixed-relation pairs that Ours catches (paper §5.5)") {
    val gctx = TextGen.context(TextGen.MedLite)
    val rng = new scala.util.Random(23)
    var missed = 0
    var oursCaught = 0
    val trials = 25
    for (_ <- 1 to trials) {
      val (s, t, _) = TextGen.plantPair(gctx, "TJS", rng)
      val c = Combination.sim(gctx.knowledge, s, t)
      val u = Usim.approx(gctx.knowledge, s, t)
      if (u >= 0.7) {
        oursCaught += 1
        if (c < 0.7) missed += 1
      }
    }
    assert(oursCaught > trials / 2)
    assert(missed > 0, "Combination should miss some mixed pairs")
  }
}
