#include "src/text/features.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/error.h"

namespace fa::text {
namespace {

const std::vector<std::string> kCorpus = {
    "disk failed disk replaced",
    "disk error on server",
    "network switch rebooted",
    "network cable replaced",
};

// One document's weights spread over every vocabulary dimension.
std::vector<double> transform(const Vectorizer& v, const std::string& doc) {
  std::vector<double> vec(v.dimension(), 0.0);
  for (const auto& [index, weight] : v.transform_sparse(doc)) {
    vec.at(index) = weight;
  }
  return vec;
}

TEST(Vectorizer, VocabularyRespectsMinDocumentFrequency) {
  VectorizerOptions options;
  options.min_document_frequency = 2;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto& vocab = v.vocabulary();
  // "disk" (3 docs), "network" (2), "replaced" (2) survive; "switch" (1)
  // does not.
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "disk"), vocab.end());
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "network"), vocab.end());
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "replaced"), vocab.end());
  EXPECT_EQ(std::find(vocab.begin(), vocab.end(), "switch"), vocab.end());
}

TEST(Vectorizer, TransformDimensionMatchesVocabulary) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto matrix = v.transform_all_sparse(kCorpus);
  EXPECT_EQ(matrix.cols(), v.dimension());
  EXPECT_EQ(matrix.rows(), kCorpus.size());
  for (const auto& [index, weight] : v.transform_sparse(kCorpus[0])) {
    EXPECT_LT(index, v.dimension());
    EXPECT_GT(weight, 0.0);
  }
}

TEST(Vectorizer, L2NormalizationUnitLength) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto vec = transform(v, "disk error network");
  double norm = 0.0;
  for (double x : vec) norm += x * x;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-12);
}

TEST(Vectorizer, UnseenWordsIgnored) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto v = Vectorizer::fit(kCorpus, options);
  EXPECT_TRUE(v.transform_sparse("quantum blockchain nonsense").empty());
}

TEST(Vectorizer, IdfDownweightsCommonWords) {
  // "disk" appears in 3 of 4 docs, "cable" in 1: with IDF the rare word
  // should get more weight for equal term frequency.
  VectorizerOptions options;
  options.min_document_frequency = 1;
  options.l2_normalize = false;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto vec = transform(v, "disk cable");
  const auto& vocab = v.vocabulary();
  double disk_w = 0.0, cable_w = 0.0;
  for (std::size_t i = 0; i < vocab.size(); ++i) {
    if (vocab[i] == "disk") disk_w = vec[i];
    if (vocab[i] == "cable") cable_w = vec[i];
  }
  EXPECT_GT(cable_w, disk_w);
  EXPECT_GT(disk_w, 0.0);
}

TEST(Vectorizer, RepeatedWordsIncreaseTermFrequency) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  options.l2_normalize = false;
  options.use_idf = false;
  const auto v = Vectorizer::fit(kCorpus, options);
  const auto once = transform(v, "disk");
  const auto thrice = transform(v, "disk disk disk");
  double w1 = 0.0, w3 = 0.0;
  for (std::size_t i = 0; i < v.vocabulary().size(); ++i) {
    if (v.vocabulary()[i] == "disk") {
      w1 = once[i];
      w3 = thrice[i];
    }
  }
  EXPECT_DOUBLE_EQ(w3, 3.0 * w1);
}

TEST(Vectorizer, DeterministicVocabularyOrder) {
  VectorizerOptions options;
  options.min_document_frequency = 1;
  const auto a = Vectorizer::fit(kCorpus, options);
  const auto b = Vectorizer::fit(kCorpus, options);
  EXPECT_EQ(a.vocabulary(), b.vocabulary());
}

TEST(Vectorizer, RejectsDegenerateInput) {
  VectorizerOptions options;
  EXPECT_THROW(Vectorizer::fit({}, options), fa::Error);
  options.min_document_frequency = 100;
  EXPECT_THROW(Vectorizer::fit(kCorpus, options), fa::Error);
}

}  // namespace
}  // namespace fa::text
