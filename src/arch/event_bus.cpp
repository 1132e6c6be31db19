#include "arch/event_bus.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace aft::arch {

TopicId EventBus::intern(std::string_view topic) {
  const TopicId id = topics_.intern(topic);
  // Growing buckets_ would relocate the Bucket a running publish is walking,
  // so while publishes are on the stack a new topic exists only in the
  // interning table; apply_deferred() grows the bucket array afterwards.
  if (depth_ == 0 && buckets_.size() < topics_.size()) {
    buckets_.resize(topics_.size());
  }
  return id;
}

TopicId EventBus::find_topic(std::string_view topic) const noexcept {
  const util::StringInterner::Id id = topics_.find(topic);
  return id == util::StringInterner::kNone ? kNoTopic : id;
}

EventBus::SubscriptionId EventBus::subscribe(TopicId topic, Handler handler) {
  const SubscriptionId id = next_id_++;
  slot_of_.emplace(id, topic);
  if (depth_ > 0) {
    pending_.push_back(Pending{topic, id, std::move(handler)});
  } else {
    if (buckets_.size() <= topic) buckets_.resize(topic + std::size_t{1});
    Bucket& bucket = buckets_[topic];
    bucket.ids.push_back(id);
    bucket.handlers.push_back(std::move(handler));
    ++bucket.live;
  }
  AFT_TRACE("arch.bus", "subscribe", {{"topic", topic_name(topic)}, {"id", id}});
  return id;
}

EventBus::SubscriptionId EventBus::subscribe_all(Handler handler) {
  const SubscriptionId id = next_id_++;
  slot_of_.emplace(id, kWildcardSlot);
  if (depth_ > 0) {
    pending_.push_back(Pending{kWildcardSlot, id, std::move(handler)});
  } else {
    wildcard_.ids.push_back(id);
    wildcard_.handlers.push_back(std::move(handler));
    ++wildcard_.live;
  }
  AFT_TRACE("arch.bus", "subscribe", {{"topic", "*"}, {"id", id}});
  return id;
}

void EventBus::unsubscribe(SubscriptionId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;  // unknown or already unsubscribed
  const TopicId topic = it->second;
  slot_of_.erase(it);

  Bucket& bucket = topic == kWildcardSlot ? wildcard_ : buckets_[topic];
  bool found = false;
  for (std::size_t i = 0; i < bucket.ids.size(); ++i) {
    if (bucket.ids[i] != id) continue;
    found = true;
    if (depth_ > 0) {
      // A handler of the in-flight publish may be unsubscribing *itself*:
      // tombstone the entry (delivery skips it) and keep the callable alive
      // until the outermost publish unwinds and compacts the bucket.
      bucket.ids[i] = kDeadEntry;
      --bucket.live;
      dirty_.push_back(topic);
    } else {
      bucket.ids.erase(bucket.ids.begin() +
                       static_cast<std::ptrdiff_t>(i));
      bucket.handlers.erase(bucket.handlers.begin() +
                            static_cast<std::ptrdiff_t>(i));
      --bucket.live;
      if (bucket.ids.empty()) {
        // Release the bucket's storage once its last subscriber leaves:
        // long-lived buses see heavy subscribe/unsubscribe churn across
        // many topics, and retained capacity would accumulate forever.
        std::vector<SubscriptionId>().swap(bucket.ids);
        std::vector<Handler>().swap(bucket.handlers);
      }
    }
    break;
  }
  if (!found) {
    // Subscribed and unsubscribed within the same publish: the handler is
    // still queued in pending_ and must never be installed.
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].id != id) continue;
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  AFT_TRACE("arch.bus", "unsubscribe", {{"id", id}});
}

std::size_t EventBus::deliver(Bucket& bucket, const Message& message) {
  std::size_t delivered = 0;
  // The tables are frozen while depth_ > 0 (subscribes queue, unsubscribes
  // tombstone in place), so this index walk cannot be invalidated by
  // anything a handler does — including unsubscribing itself.
  const std::size_t n = bucket.ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    // A handler earlier in this same publish may have unsubscribed this id;
    // delivering to it anyway would resurrect a subscriber that asked to be
    // gone (observed as double-processing in churn-heavy middlewares).
    if (bucket.ids[i] == kDeadEntry) continue;
    bucket.handlers[i](message);
    ++delivered;
  }
  return delivered;
}

std::size_t EventBus::publish(const Message& message) {
  return publish(find_topic(message.topic), message);
}

std::size_t EventBus::publish(TopicId topic, const Message& message) {
  ++published_;
  DepthGuard guard(*this);
  Bucket* const bucket =
      topic != kNoTopic && topic < buckets_.size() ? &buckets_[topic] : nullptr;
  // The publish record is emitted BEFORE delivery and installed as the
  // current cause, so everything a subscriber does with the notification —
  // including forwarding it over a net::Link to another node's bus — chains
  // back to this publish (and through it to the detector/injection that
  // provoked it).  `aft_trace why` on a remote delivery lands here.
  const obs::CauseScope cause(
      "arch.bus", "publish",
      {{"topic", message.topic},
       {"source", message.source},
       {"subscribers",
        (bucket != nullptr ? bucket->live : 0) + wildcard_.live}});
  std::size_t delivered = 0;
  if (bucket != nullptr) delivered += deliver(*bucket, message);
  delivered += deliver(wildcard_, message);
  AFT_METRIC_ADD("bus.published", 1);
  AFT_METRIC_ADD("bus.delivered", delivered);
  return delivered;
}

std::size_t EventBus::publish_batch(TopicId topic,
                                    std::span<const Message> batch) {
  if (batch.empty()) return 0;
  published_ += batch.size();
  DepthGuard guard(*this);
  Bucket* const bucket =
      topic != kNoTopic && topic < buckets_.size() ? &buckets_[topic] : nullptr;
  // One trace record covers the whole batch and serves as the cause for
  // every delivery it triggers — the amortization that makes full-detail
  // tracing affordable on the mesh hot path.
  const obs::CauseScope cause(
      "arch.bus", "publish-batch",
      {{"topic", topic != kNoTopic && topic < topics_.size()
                     ? std::string_view(topics_.name(topic))
                     : std::string_view(batch.front().topic)},
       {"count", batch.size()},
       {"subscribers",
        (bucket != nullptr ? bucket->live : 0) + wildcard_.live}});
  std::size_t delivered = 0;
  for (const Message& message : batch) {
    if (bucket != nullptr) delivered += deliver(*bucket, message);
    delivered += deliver(wildcard_, message);
  }
  AFT_METRIC_ADD("bus.published", batch.size());
  AFT_METRIC_ADD("bus.delivered", delivered);
  return delivered;
}

std::size_t EventBus::publish_batch(std::span<const Message> batch) {
  std::size_t delivered = 0;
  std::size_t i = 0;
  while (i < batch.size()) {
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].topic == batch[i].topic) ++j;
    delivered += publish_batch(find_topic(batch[i].topic),
                               batch.subspan(i, j - i));
    i = j;
  }
  return delivered;
}

std::size_t EventBus::topic_count() const noexcept {
  std::size_t n = 0;
  for (const Bucket& bucket : buckets_) n += bucket.live > 0 ? 1 : 0;
  return n;
}

void EventBus::apply_deferred() {
  if (buckets_.size() < topics_.size()) buckets_.resize(topics_.size());
  for (const TopicId topic : dirty_) {
    compact(topic == kWildcardSlot ? wildcard_ : buckets_[topic]);
  }
  dirty_.clear();
  for (Pending& p : pending_) {
    Bucket& bucket = p.topic == kWildcardSlot ? wildcard_ : buckets_[p.topic];
    bucket.ids.push_back(p.id);
    bucket.handlers.push_back(std::move(p.handler));
    ++bucket.live;
  }
  pending_.clear();
}

void EventBus::compact(Bucket& bucket) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < bucket.ids.size(); ++r) {
    if (bucket.ids[r] == kDeadEntry) continue;
    if (w != r) {
      bucket.ids[w] = bucket.ids[r];
      bucket.handlers[w] = std::move(bucket.handlers[r]);
    }
    ++w;
  }
  bucket.ids.resize(w);
  bucket.handlers.resize(w);
  bucket.live = w;
  if (w == 0) {
    std::vector<SubscriptionId>().swap(bucket.ids);
    std::vector<Handler>().swap(bucket.handlers);
  }
}

}  // namespace aft::arch
