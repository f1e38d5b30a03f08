package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TextGen

class KnowledgeSpec extends AnyFunSuite {

  test("Rule rejects empty sides") {
    intercept[IllegalArgumentException](Rule(Vector.empty, Vector("a"), 1.0))
    intercept[IllegalArgumentException](Rule(Vector("a"), Vector.empty, 1.0))
  }

  test("Rule rejects out-of-range closeness") {
    intercept[IllegalArgumentException](Rule(Vector("a"), Vector("b"), 0.0))
    intercept[IllegalArgumentException](Rule(Vector("a"), Vector("b"), 1.5))
  }

  test("Rule.maxTokens is the larger side") {
    assert(Rule(Vector("a", "b", "c"), Vector("x"), 1.0).maxTokens == 3)
    assert(Rule(Vector("a"), Vector("x", "y"), 1.0).maxTokens == 2)
  }

  test("MeasureSet rejects the empty combination") {
    intercept[IllegalArgumentException](MeasureSet(j = false, s = false, t = false))
  }

  test("MeasureSet labels follow the paper's T/J/S naming") {
    assert(MeasureSet.TJS.label == "TJS")
    assert(MeasureSet.J.label == "J")
    assert(MeasureSet.TJ.label == "TJ")
    assert(MeasureSet.all.map(_.label).toSet ==
      Set("J", "T", "S", "TJ", "JS", "TS", "TJS"))
  }

  test("byLhs and byRhs index every rule") {
    val k = Knowledge.figure1
    assert(k.byLhs(Vector("coffee", "shop")).nonEmpty)
    assert(k.byRhs(Vector("cafe")).nonEmpty)
    assert(k.byLhs.values.map(_.size).sum == k.rules.size)
  }

  test("rulesTouching returns rules for either side, deduplicated") {
    val rules = Vector(
      Rule(Vector("a"), Vector("b"), 0.9),
      Rule(Vector("b"), Vector("a"), 0.8))
    val k = new Knowledge(rules, Knowledge.empty.taxonomy)
    assert(k.rulesTouching(Vector("a")).toSet == Set(0, 1))
    assert(k.rulesTouching(Vector("c")).isEmpty)
  }

  test("self-referential rule appears once in rulesTouching") {
    val k = new Knowledge(Vector(Rule(Vector("a"), Vector("a", "b"), 0.9)),
      Knowledge.empty.taxonomy)
    assert(k.rulesTouching(Vector("a")).size == 1)
  }

  test("maxRuleTokens and maxSegmentTokens reflect the knowledge") {
    val k = Knowledge.figure1
    assert(k.maxRuleTokens == 2) // "coffee shop"
    assert(k.maxSegmentTokens == 2) // entities also max 2 tokens
    assert(Knowledge.empty.maxRuleTokens == 1)
  }

  test("knowledge structures survive Java serialisation (Spark broadcast)") {
    val k = Knowledge.figure1
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(k)
    val k2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[Knowledge]
    assert(k2.rules == k.rules)
    assert(k2.taxonomy.names == k.taxonomy.names)
    assert(k2.byLhs == k.byLhs)
    assert(Measures.taxonomy(k2, Vector("latte"), Vector("espresso")) == 0.8)
  }

  private def javaRoundTrip[A](a: A): A = {
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(a)
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[A]
  }

  private def assertRebuilt(want: Knowledge, got: Knowledge): Unit = {
    assert(got ne want)
    assert(got.rules.length == want.rules.length)
    for ((a, b) <- want.rules.zip(got.rules)) {
      assert(a.lhs == b.lhs && a.rhs == b.rhs)
      assert(java.lang.Double.doubleToLongBits(a.c) == java.lang.Double.doubleToLongBits(b.c))
    }
    val (wt, gt) = (want.taxonomy, got.taxonomy)
    assert(gt.parent.toSeq == wt.parent.toSeq)
    assert(gt.names == wt.names)
    assert(gt.depth.toSeq == wt.depth.toSeq)
    for (n <- wt.names) assert(gt.node(n) == wt.node(n))
    assert(got.byLhs == want.byLhs)
    assert(got.byRhs == want.byRhs)
    assert(got.maxRuleTokens == want.maxRuleTokens)
    assert(got.maxSegmentTokens == want.maxSegmentTokens)
  }

  private val packCases: Seq[(String, () => Knowledge)] = Seq(
    "Figure 1" -> (() => Knowledge.figure1),
    "empty" -> (() => Knowledge.empty),
    "MED-lite" -> (() => TextGen.context(TextGen.MedLite).knowledge),
    "WIKI-lite" -> (() => TextGen.context(TextGen.WikiLite).knowledge),
    "conflict instance" -> (() => TextGen.conflictInstance(4, 7L)._1),
    "hand-made" -> { () =>
      // "kaffee" is defined twice (the first id wins), "café" is not
      // ASCII, and two names have an empty token or no token at all
      val tax = new Taxonomy(Array(0, 0, 1, 1, 0, 2, 0),
        Vector(Vector("root"), Vector("kaffee"), Vector("café", "crème"), Vector("kaffee"),
          Vector(""), Vector("café"), Vector.empty))
      val rules = Vector(
        Rule(Vector("café"), Vector("kaffee"), 0.7),
        Rule(Vector("café"), Vector("coffee", "shop", "café"), 1.0),
        Rule(Vector("crème"), Vector("café"), 0.1 + 0.2))
      new Knowledge(rules, tax)
    },
  )

  for ((name, make) <- packCases)
    test(s"packed knowledge rebuilds identically, also after Java serialisation: $name") {
      val k = make()
      assertRebuilt(k, Knowledge.Packed(k).knowledge)
      assertRebuilt(k, javaRoundTrip(Knowledge.Packed(k)).knowledge)
    }
}
