#include "core/minbase_agent.hpp"

#include <algorithm>
#include <stdexcept>

namespace anonet {

MinBaseAgent::MinBaseAgent(std::shared_ptr<ViewRegistry> registry,
                           std::shared_ptr<LabelCodec> codec,
                           std::int64_t input, CommModel model,
                           int max_view_depth)
    : registry_(std::move(registry)),
      codec_(std::move(codec)),
      input_(input),
      model_(model),
      max_view_depth_(max_view_depth) {
  if (registry_ == nullptr || codec_ == nullptr) {
    throw std::invalid_argument("MinBaseAgent: null registry or codec");
  }
  if (max_view_depth < 0) {
    throw std::invalid_argument("MinBaseAgent: negative max_view_depth");
  }
}

int MinBaseAgent::own_label() const {
  if (model_ == CommModel::kOutdegreeAware) {
    if (observed_outdegree_ < 0) {
      throw std::logic_error("MinBaseAgent: outdegree not observed yet");
    }
    return codec_->valued_degree_label(input_, observed_outdegree_);
  }
  return codec_->value_label(input_);
}

MinBaseAgent::Message MinBaseAgent::send(int outdegree, int port) const {
  if (sees_outdegree(model_)) observed_outdegree_ = outdegree;
  const ViewId current =
      view_ == kInvalidView ? registry_->leaf(own_label()) : view_;
  return Message{current, port};
}

void MinBaseAgent::receive(Inbox<Message> messages) {
  if (messages.empty()) {
    throw std::logic_error("MinBaseAgent: no messages (missing self-loop?)");
  }
  // Under arbitrary initialization (self-stabilization) received views can
  // have inconsistent depths; align on the shallowest, discarding the deeper
  // views' old layers. In a clean synchronous execution all depths agree and
  // this is a no-op.
  int min_depth = registry_->depth(messages.front().view);
  for (const Message& m : messages) {
    min_depth = std::min(min_depth, registry_->depth(m.view));
  }
  ViewRegistry::ChildList children;
  children.reserve(messages.size());
  for (const Message& m : messages) {
    children.emplace_back(registry_->truncate(m.view, min_depth), m.port);
  }
  view_ = registry_->node(own_label(), std::move(children));
  if (max_view_depth_ > 0 && registry_->depth(view_) > max_view_depth_) {
    // Finite-state variant: forget the oldest layers (truncation keeps the
    // *top* of the tree, i.e. the most recent information).
    view_ = registry_->truncate(view_, max_view_depth_);
  }
  ++rounds_;
}

const ExtractedBase& MinBaseAgent::candidate() const {
  // Lazy extraction: table harnesses only inspect candidates occasionally,
  // and extraction dominates the cost of a round.
  if (candidate_round_ != rounds_ || view_ == kInvalidView) {
    candidate_ = view_ == kInvalidView ? ExtractedBase{}
                                       : extract_base(*registry_, view_);
    candidate_round_ = rounds_;
  }
  return candidate_;
}

void MinBaseAgent::corrupt(ViewId garbage_view) {
  view_ = garbage_view;
  candidate_round_ = -1;
}

}  // namespace anonet
